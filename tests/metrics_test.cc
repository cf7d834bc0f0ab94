#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mdbs::sim {
namespace {

/// Sorted-vector oracle for quantiles: the linear-interpolation definition
/// (pos = q * (n - 1)) the histogram reproduces exactly inside the exact
/// region and approximates within bucket resolution beyond.
double OracleQuantile(std::vector<int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0.0;
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(values[lo]) +
         frac * static_cast<double>(values[hi] - values[lo]);
}

// --------------------------------------------------------------------------
// LogLinearHistogram
// --------------------------------------------------------------------------

TEST(LogLinearHistogramTest, BucketGeometryRoundTrips) {
  for (int64_t v : {0, 1, 5, 63, 64, 65, 127, 128, 1000, 123456789}) {
    size_t index = LogLinearHistogram::BucketIndex(v);
    EXPECT_GE(v, LogLinearHistogram::BucketLower(index)) << v;
    EXPECT_LT(v, LogLinearHistogram::BucketUpper(index)) << v;
  }
  // Values below the sub-bucket count get width-1 buckets (exact region).
  for (int64_t v = 0; v < LogLinearHistogram::kSubBucketCount; ++v) {
    size_t index = LogLinearHistogram::BucketIndex(v);
    EXPECT_EQ(LogLinearHistogram::BucketUpper(index) -
                  LogLinearHistogram::BucketLower(index),
              1);
  }
  // Relative bucket width beyond the exact region is at most 1/64.
  for (int64_t v : {int64_t{1} << 10, int64_t{1} << 30, int64_t{1} << 50}) {
    size_t index = LogLinearHistogram::BucketIndex(v);
    int64_t width = LogLinearHistogram::BucketUpper(index) -
                    LogLinearHistogram::BucketLower(index);
    EXPECT_LE(width * LogLinearHistogram::kSubBucketCount,
              LogLinearHistogram::BucketLower(index));
  }
}

TEST(LogLinearHistogramTest, ValueAtRankTracksTheSortedOracle) {
  LogLinearHistogram histogram;
  std::vector<int64_t> values;
  for (int i = 0; i < 20'000; ++i) {
    // Deterministic long-tailed series spanning the exact and log regions.
    int64_t v = (i % 97) + ((i * i) % 1009) * ((i % 13 == 0) ? 517 : 1);
    values.push_back(v);
    histogram.Record(v);
  }
  EXPECT_EQ(histogram.total(), static_cast<int64_t>(values.size()));
  for (double q : {0.5, 0.95, 0.99, 0.999}) {
    double pos = q * static_cast<double>(values.size() - 1);
    double oracle = OracleQuantile(values, q);
    // Resolution bound: one bucket of relative error (1/64), plus one more
    // for cross-bucket interpolation at rank boundaries.
    EXPECT_NEAR(histogram.ValueAtRank(pos), oracle,
                2.0 * oracle / LogLinearHistogram::kSubBucketCount + 1.0)
        << q;
  }
}

// --------------------------------------------------------------------------
// Summary
// --------------------------------------------------------------------------

TEST(SummaryTest, EmptyIsAllZero) {
  Summary summary;
  EXPECT_EQ(summary.count(), 0);
  EXPECT_EQ(summary.mean(), 0.0);
  EXPECT_EQ(summary.min(), 0.0);
  EXPECT_EQ(summary.max(), 0.0);
  EXPECT_EQ(summary.Quantile(0.5), 0.0);
  EXPECT_TRUE(summary.histogram().empty());
}

TEST(SummaryTest, ExactQuantilesInExactRegion) {
  Summary summary;
  // 1..50 in a scrambled order; quantiles must not depend on it. All values
  // sit in the histogram's width-1 buckets, so interpolation reproduces the
  // sorted-vector definition exactly.
  std::vector<int64_t> values;
  for (int i = 0; i < 50; ++i) {
    int64_t v = ((i * 37) % 50) + 1;
    values.push_back(v);
    summary.Add(static_cast<double>(v));
  }
  EXPECT_EQ(summary.count(), 50);
  EXPECT_DOUBLE_EQ(summary.mean(), 25.5);
  EXPECT_DOUBLE_EQ(summary.min(), 1.0);
  EXPECT_DOUBLE_EQ(summary.max(), 50.0);
  EXPECT_DOUBLE_EQ(summary.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(summary.Quantile(1.0), 50.0);
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(summary.Quantile(q), OracleQuantile(values, q)) << q;
  }
}

TEST(SummaryTest, FullSeriesCountedWithBoundedQuantileError) {
  // No reservoir: count stays exact at any volume and quantiles track the
  // oracle within the histogram's relative-error bound, p999 included.
  Summary summary;
  std::vector<int64_t> values;
  const int n = 200'000;
  for (int i = 1; i <= n; ++i) {
    int64_t v = (i % 317 == 0) ? i * 41 : (i % 4096);  // heavy tail
    values.push_back(v);
    summary.Add(static_cast<double>(v));
  }
  EXPECT_EQ(summary.count(), n);
  EXPECT_DOUBLE_EQ(summary.min(), 0.0);
  for (double q : {0.5, 0.95, 0.99, 0.999}) {
    double oracle = OracleQuantile(values, q);
    EXPECT_NEAR(summary.Quantile(q), oracle,
                2.0 * oracle / LogLinearHistogram::kSubBucketCount + 1.0)
        << q;
  }
}

TEST(SummaryTest, DeterministicAcrossInsertionOrder) {
  Summary forward;
  Summary scrambled;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) forward.Add(i % 9973);
  for (int i = 0; i < n; ++i) scrambled.Add(((i * 7919) % n) % 9973);
  EXPECT_DOUBLE_EQ(forward.Quantile(0.5), scrambled.Quantile(0.5));
  EXPECT_DOUBLE_EQ(forward.Quantile(0.99), scrambled.Quantile(0.99));
  EXPECT_DOUBLE_EQ(forward.Quantile(0.999), scrambled.Quantile(0.999));
  EXPECT_EQ(forward.ToString(), scrambled.ToString());
}

// --------------------------------------------------------------------------
// MetricsRegistry
// --------------------------------------------------------------------------

TEST(MetricsRegistryTest, EmptyRegistry) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.Counter("missing"), 0);
  EXPECT_EQ(registry.GetSummary("missing"), nullptr);
  EXPECT_TRUE(registry.counters().empty());
  EXPECT_TRUE(registry.summaries().empty());
}

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry registry;
  registry.Increment("a");
  registry.Increment("a", 4);
  registry.Increment("b", -2);
  EXPECT_EQ(registry.Counter("a"), 5);
  EXPECT_EQ(registry.Counter("b"), -2);
}

TEST(MetricsRegistryTest, ObserveBuildsSummaries) {
  MetricsRegistry registry;
  registry.Observe("lat", 10);
  registry.Observe("lat", 30);
  const Summary* summary = registry.GetSummary("lat");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->count(), 2);
  EXPECT_DOUBLE_EQ(summary->mean(), 20.0);
}

TEST(MetricsRegistryTest, PutInstallsForeignSummary) {
  Summary external;
  for (int i = 1; i <= 10; ++i) external.Add(i);
  MetricsRegistry registry;
  registry.Put("driver.response", external);
  const Summary* summary = registry.GetSummary("driver.response");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->count(), 10);
  EXPECT_DOUBLE_EQ(summary->max(), 10.0);
}

}  // namespace
}  // namespace mdbs::sim
