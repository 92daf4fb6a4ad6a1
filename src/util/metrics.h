// Metrics utilities: a bucketed histogram for latency and size samples.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hybridgraph {

/// \brief Simple power-of-two bucketed histogram for latency/size samples.
class Histogram {
 public:
  Histogram() : buckets_(kNumBuckets, 0) {}

  void Record(uint64_t value) {
    ++count_;
    sum_ += value;
    min_ = count_ == 1 ? value : std::min(min_, value);
    max_ = std::max(max_, value);
    ++buckets_[BucketFor(value)];
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double mean() const { return count_ ? static_cast<double>(sum_) / count_ : 0.0; }

  /// Approximate quantile from bucket boundaries (upper bound of the bucket).
  uint64_t ValueAtQuantile(double q) const;

  void Reset() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = sum_ = max_ = 0;
    min_ = 0;
  }

 private:
  static constexpr int kNumBuckets = 64;

  static int BucketFor(uint64_t v) {
    if (v == 0) return 0;
    int b = 64 - __builtin_clzll(v);
    return b >= kNumBuckets ? kNumBuckets - 1 : b;
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace hybridgraph
