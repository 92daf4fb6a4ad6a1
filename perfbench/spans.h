// The benchmark's own trace: one span per call it makes into a module
// (name, start, end, parent), kept in memory and written out when the run
// ends. Spans are recorded on one thread only (the benchmark's main thread);
// the parent of a span is whichever span was open when it began.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  ///< index into SpanRecorder::spans(), -1 = root
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its id (-1 when disabled).
  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.start_us = NowUs();
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes span `id` (a no-op for -1). Spans close innermost first.
  void End(int id) {
    if (id < 0) return;
    spans_[id].end_us = NowUs();
    while (!open_.empty()) {
      const int top = open_.back();
      open_.pop_back();
      if (top == id) break;
    }
  }

  /// Microseconds since the recorder was created.
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), id_(rec->Begin(name)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Median of `v` (0 for an empty vector).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Seconds elapsed since `t0` on the steady clock.
inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
