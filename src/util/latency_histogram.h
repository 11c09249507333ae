// Log-bucketed latency histogram for service-wide metrics: constant-size,
// with interpolated p50/p95/p99 queries. It is the storage behind every
// obs::Histogram in the metrics registry. Resolution is
// 2^(1/4) per bucket (~19% relative error worst case), which is plenty for
// "is warm an order of magnitude below cold" serving questions.
#ifndef QKBFLY_UTIL_LATENCY_HISTOGRAM_H_
#define QKBFLY_UTIL_LATENCY_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>

namespace qkbfly {

/// Fixed-size histogram over latencies. Buckets are geometric in
/// microseconds: bucket i covers [2^(i/4), 2^((i+1)/4)) us, so the range
/// spans sub-microsecond to ~17 minutes. Not internally synchronized;
/// owners guard it (obs::Histogram keeps one per stripe and merges them) or
/// use it from one thread.
class LatencyHistogram {
 public:
  // 160 quarter-octave buckets: 2^(160/4) us ~= 1.1e6 s upper bound.
  static constexpr int kBucketCount = 160;

  /// Records one sample. Negative and NaN inputs are clamped to zero (they
  /// can only come from clock anomalies and must not poison min/max).
  void Record(double seconds);

  /// Adds all of `other`'s samples. Merging into an empty histogram gives
  /// `other` exactly (counts, buckets, min, max and sum).
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  double min_seconds() const { return count_ == 0 ? 0.0 : min_s_; }
  double max_seconds() const { return max_s_; }

  /// Sum of all recorded samples in seconds (Prometheus `_sum` series).
  double sum_seconds() const { return sum_s_; }

  /// Interpolated percentile in seconds; `p` in [0, 1]. An empty histogram
  /// returns 0 for every percentile (defined, never bucket garbage).
  double PercentileSeconds(double p) const;

  /// Raw per-bucket sample count; `bucket` in [0, kBucketCount).
  uint64_t BucketSamples(int bucket) const;

  /// Index of the highest non-empty bucket, or -1 when empty. Exporters emit
  /// buckets [0, MaxBucket()] plus +Inf instead of all 160.
  int MaxBucket() const;

  /// Inclusive upper bound of a bucket in seconds (Prometheus `le` label).
  static double BucketUpperBoundSeconds(int bucket);

  /// One-line "count N  min A ms  p50 B ms  p95 C ms  p99 D ms  max E ms".
  std::string Report() const;

 private:
  static constexpr int kBuckets = kBucketCount;

  static int BucketFor(double seconds);
  static double BucketLowerSeconds(int bucket);
  static double BucketUpperSeconds(int bucket);

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  double min_s_ = 0.0;
  double max_s_ = 0.0;
  double sum_s_ = 0.0;
};

}  // namespace qkbfly

#endif  // QKBFLY_UTIL_LATENCY_HISTOGRAM_H_
