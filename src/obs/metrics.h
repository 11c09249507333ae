// The process-wide metrics registry: the single source of truth for every
// counter, gauge, and latency histogram in the system. Components fetch
// their instruments once (construction time, under one registry mutex) and
// then update them lock-free (counters/gauges are relaxed atomics) or with
// one short mutex hold (histograms wrap util/latency_histogram, which is not
// internally synchronized). Counters and histograms are striped per thread:
// a query-tier hit takes about a microsecond, so one shared atomic or mutex
// per instrument would be a cache line every serving thread writes on every
// query. Each thread updates its own stripe and readers merge them. Ad-hoc
// per-component counter and timing structs are gone: each layer's time has
// one record here (plus its span when tracing is on), and `CacheStats` from
// a memo's stats() is a per-instance view of registry counters. Tests and
// tools read deltas of the registry.
//
// Naming convention (enforced at registration, and for span names by
// obs::Trace): `snake_case` literals, `<subsystem>_<what>[_total|_seconds|
// _bytes]`. Counters end in `_total`, histograms over durations in
// `_seconds`, byte gauges in `_bytes`. Names must be string literals at the
// call site so the hot path never concatenates strings.
//
// Exporters: `ToPrometheusText` emits the text exposition format (counter /
// gauge / histogram with log-bucket `le` labels); `ToJson` emits a flat JSON
// object checked by `ValidateJson` (wired into scripts/check.sh via
// qkbfly_serve --metrics-out).
#ifndef QKBFLY_OBS_METRICS_H_
#define QKBFLY_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/latency_histogram.h"

namespace qkbfly::obs {

/// Stripes per Counter and Histogram: a constant, sized to the threads that
/// record concurrently (serving clients plus worker pools).
inline constexpr size_t kStripes = 8;

/// This thread's stripe in [0, kStripes). Threads take stripes round-robin
/// on first use, so up to kStripes threads record without sharing one.
inline size_t ThreadStripe() {
  static std::atomic<size_t> next_stripe{0};
  thread_local const size_t stripe =
      next_stripe.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

/// Monotonically increasing event count. Updates are relaxed atomics on the
/// calling thread's stripe: the registry only promises eventual visibility
/// of totals, never ordering against the work being counted.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    stripes_[ThreadStripe()].value.fetch_add(delta,
                                             std::memory_order_relaxed);
  }

  /// The sum of the stripes. Each stripe only grows, so successive reads
  /// on one thread never decrease.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  Counter() = default;

 private:
  struct alignas(64) Stripe {  // one cache line each
    std::atomic<uint64_t> value{0};
  };
  std::array<Stripe, kStripes> stripes_;
};

/// A value that can go up and down (resident bytes, queue depth). Integer
/// valued: every gauge in the system counts discrete resources.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  Gauge() = default;

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed latency distribution: striped {mutex, LatencyHistogram}
/// (the bucketing and percentile logic live there). An observation locks
/// only the calling thread's stripe for a handful of arithmetic ops, so
/// per-query observations from concurrent clients do not queue on one
/// mutex; readers lock each stripe in turn and merge.
class Histogram {
 public:
  void Observe(double seconds) {
    Stripe& stripe = stripes_[ThreadStripe()];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.histogram.Record(seconds);
  }

  /// The stripes merged. Each stripe is copied at its own instant, so a
  /// snapshot taken during concurrent observations holds some of them.
  LatencyHistogram Snapshot() const {
    LatencyHistogram merged;
    for (const Stripe& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      merged.Merge(stripe.histogram);
    }
    return merged;
  }

  uint64_t Count() const {
    uint64_t count = 0;
    for (const Stripe& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      count += stripe.histogram.count();
    }
    return count;
  }

  Histogram() = default;

 private:
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    LatencyHistogram histogram;
  };
  std::array<Stripe, kStripes> stripes_;
};

/// Point-in-time view of every registered instrument, sorted by name (the
/// registry stores instruments in ordered maps, so exports are byte-stable
/// across runs for identical values).
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::string help;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::string help;
    int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::string help;
    LatencyHistogram histogram;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

/// The registry. `Default()` is the process-wide instance (leaky singleton,
/// safe across static destruction). Get* calls are get-or-create: the same
/// name always returns the same instrument pointer, which stays valid for
/// the registry's lifetime, so callers cache it once and never re-lookup.
class MetricsRegistry {
 public:
  /// The process-wide registry used by every subsystem.
  static MetricsRegistry& Default();

  /// Instruments may also live in a private registry (tests).
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. Aborts (QKB_CHECK) on an invalid name or on a
  /// kind collision (a name can hold exactly one instrument kind). `help`
  /// is recorded on first registration and immutable afterwards.
  Counter* GetCounter(const char* name, const char* help = "");
  Gauge* GetGauge(const char* name, const char* help = "");
  Histogram* GetHistogram(const char* name, const char* help = "");

  MetricsSnapshot Snapshot() const;

  /// `[a-z][a-z0-9_]*` — the snake_case contract of metric and span names.
  static bool IsValidName(std::string_view name);

  /// Prometheus text exposition: HELP/TYPE headers, counter/gauge samples,
  /// histogram `_bucket{le=...}` / `_sum` / `_count` series. Buckets are
  /// emitted up to the highest non-empty one plus `+Inf`.
  static std::string ToPrometheusText(const MetricsSnapshot& snapshot);

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}} with
  /// per-histogram {count,sum_s,min_s,max_s,p50_s,p95_s,p99_s}.
  static std::string ToJson(const MetricsSnapshot& snapshot);

  /// Schema check for ToJson output (exact key set, numeric values,
  /// snake_case metric names). Returns false and fills `error` (when
  /// non-null) on the first violation.
  static bool ValidateJson(std::string_view text, std::string* error);

 private:
  mutable std::mutex mutex_;
  // Ordered maps: deterministic export order and stable heap pointers.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> help_;
};

/// Convenience view builders over the default registry, used by the CLI and
/// benches. Snapshot once, render twice.
std::string DefaultRegistryPrometheusText();
std::string DefaultRegistryJson();

}  // namespace qkbfly::obs

#endif  // QKBFLY_OBS_METRICS_H_
