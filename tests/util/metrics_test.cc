#include "util/metrics.h"

#include <gtest/gtest.h>

namespace hybridgraph {
namespace {

TEST(Histogram, BasicStats) {
  Histogram h;
  for (uint64_t v : {1, 2, 3, 4, 100}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
}

TEST(Histogram, QuantilesMonotonic) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Record(i);
  const uint64_t p50 = h.ValueAtQuantile(0.5);
  const uint64_t p90 = h.ValueAtQuantile(0.9);
  const uint64_t p99 = h.ValueAtQuantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p99, 500u);  // bucketed upper bound, but must cover the tail
}

TEST(Histogram, ZeroBucket) {
  Histogram h;
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
  EXPECT_EQ(h.max(), 0u);
}

}  // namespace
}  // namespace hybridgraph
