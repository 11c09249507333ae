#include "util/latency_histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace qkbfly {
namespace {

TEST(LatencyHistogramTest, EmptyHistogramIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.PercentileSeconds(0.5), 0.0);
  EXPECT_EQ(h.min_seconds(), 0.0);
  EXPECT_EQ(h.max_seconds(), 0.0);
}

TEST(LatencyHistogramTest, TracksExactExtremes) {
  LatencyHistogram h;
  h.Record(0.002);
  h.Record(0.050);
  h.Record(0.010);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 0.002);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 0.050);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(0.0), 0.002);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(1.0), 0.050);
}

TEST(LatencyHistogramTest, PercentilesApproximateWithinBucketResolution) {
  LatencyHistogram h;
  // 1..100 ms uniformly.
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i) * 1e-3);
  // Quarter-octave buckets: relative error bounded by 2^(1/4) ~= 1.19.
  double p50 = h.PercentileSeconds(0.50);
  EXPECT_GT(p50, 0.050 / 1.25);
  EXPECT_LT(p50, 0.050 * 1.25);
  double p95 = h.PercentileSeconds(0.95);
  EXPECT_GT(p95, 0.095 / 1.25);
  EXPECT_LT(p95, 0.100 + 1e-12);  // clamped to the exact max
  EXPECT_GE(h.PercentileSeconds(0.99), p95);
}

TEST(LatencyHistogramTest, PercentilesAreMonotone) {
  LatencyHistogram h;
  for (int i = 1; i <= 37; ++i) h.Record(static_cast<double>(i * i) * 1e-5);
  double prev = 0.0;
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    double value = h.PercentileSeconds(p);
    EXPECT_GE(value, prev) << "p=" << p;
    prev = value;
  }
}

TEST(LatencyHistogramTest, NegativeAndNanSamplesClampToZero) {
  LatencyHistogram h;
  h.Record(-0.5);
  h.Record(std::nan(""));
  h.Record(0.020);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 0.020);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), 0.020);
  EXPECT_GE(h.PercentileSeconds(0.99), 0.0);
}

TEST(LatencyHistogramTest, SumTracksSamples) {
  LatencyHistogram h;
  h.Record(0.010);
  h.Record(0.030);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), 0.040);
}

TEST(LatencyHistogramTest, BucketAccessorsMatchRecording) {
  LatencyHistogram h;
  EXPECT_EQ(h.MaxBucket(), -1);
  h.Record(0.005);
  int top = h.MaxBucket();
  ASSERT_GE(top, 0);
  ASSERT_LT(top, LatencyHistogram::kBucketCount);
  EXPECT_EQ(h.BucketSamples(top), 1u);
  // The sample sits at or below its bucket's inclusive upper bound.
  EXPECT_LE(0.005, LatencyHistogram::BucketUpperBoundSeconds(top));
  uint64_t total = 0;
  for (int b = 0; b <= top; ++b) total += h.BucketSamples(b);
  EXPECT_EQ(total, h.count());
}

TEST(LatencyHistogramTest, ReportMentionsPercentiles) {
  LatencyHistogram h;
  h.Record(0.001);
  std::string report = h.Report();
  EXPECT_NE(report.find("count 1"), std::string::npos);
  EXPECT_NE(report.find("p95"), std::string::npos);
  EXPECT_NE(report.find("p99"), std::string::npos);
}

}  // namespace
}  // namespace qkbfly
