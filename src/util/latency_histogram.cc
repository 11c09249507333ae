#include "util/latency_histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace qkbfly {

int LatencyHistogram::BucketFor(double seconds) {
  double us = seconds * 1e6;
  if (!(us > 1.0)) return 0;  // sub-microsecond (and NaN) land in bucket 0
  int bucket = static_cast<int>(std::floor(std::log2(us) * 4.0));
  return std::clamp(bucket, 0, kBuckets - 1);
}

double LatencyHistogram::BucketLowerSeconds(int bucket) {
  return std::exp2(static_cast<double>(bucket) / 4.0) * 1e-6;
}

double LatencyHistogram::BucketUpperSeconds(int bucket) {
  return std::exp2(static_cast<double>(bucket + 1) / 4.0) * 1e-6;
}

void LatencyHistogram::Record(double seconds) {
  // `!(x > 0)` also catches NaN, which would otherwise stick in min_s_ and
  // break the percentile clamp forever after.
  if (!(seconds > 0.0)) seconds = 0.0;
  ++counts_[static_cast<size_t>(BucketFor(seconds))];
  if (count_ == 0 || seconds < min_s_) min_s_ = seconds;
  if (seconds > max_s_) max_s_ = seconds;
  sum_s_ += seconds;
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (count_ == 0 || other.min_s_ < min_s_) min_s_ = other.min_s_;
  max_s_ = std::max(max_s_, other.max_s_);
  sum_s_ += other.sum_s_;
  count_ += other.count_;
}

uint64_t LatencyHistogram::BucketSamples(int bucket) const {
  if (bucket < 0 || bucket >= kBuckets) return 0;
  return counts_[static_cast<size_t>(bucket)];
}

int LatencyHistogram::MaxBucket() const {
  for (int i = kBuckets - 1; i >= 0; --i) {
    if (counts_[static_cast<size_t>(i)] > 0) return i;
  }
  return -1;
}

double LatencyHistogram::BucketUpperBoundSeconds(int bucket) {
  return BucketUpperSeconds(bucket);
}

double LatencyHistogram::PercentileSeconds(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the requested sample among `count_` sorted samples.
  double rank = p * static_cast<double>(count_ - 1);
  uint64_t target = static_cast<uint64_t>(rank);
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    uint64_t n = counts_[static_cast<size_t>(i)];
    if (n == 0) continue;
    if (seen + n > target) {
      // Linear interpolation by position within the bucket.
      double frac = (static_cast<double>(target - seen) + 0.5) /
                    static_cast<double>(n);
      double lo = BucketLowerSeconds(i);
      double hi = BucketUpperSeconds(i);
      double value = lo + (hi - lo) * frac;
      // The exact extremes are tracked, so never report outside them.
      return std::clamp(value, min_s_, max_s_);
    }
    seen += n;
  }
  return max_s_;
}

std::string LatencyHistogram::Report() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "count %llu  min %.3f ms  p50 %.3f ms  p95 %.3f ms  "
                "p99 %.3f ms  max %.3f ms",
                static_cast<unsigned long long>(count_), min_seconds() * 1e3,
                PercentileSeconds(0.50) * 1e3, PercentileSeconds(0.95) * 1e3,
                PercentileSeconds(0.99) * 1e3, max_seconds() * 1e3);
  return buf;
}

}  // namespace qkbfly
