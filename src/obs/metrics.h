// The process-wide metrics registry: the single source of truth for every
// counter, gauge, and latency histogram in the system. Components fetch
// their instruments once (construction time, under one registry mutex) and
// then update them lock-free (counters/gauges are relaxed atomics) or with
// one short mutex hold (histograms wrap util/latency_histogram, which is not
// internally synchronized). Ad-hoc per-component counter structs are gone;
// `CacheStats`, `KbService::Metrics`, and friends are *views* assembled from
// registry instruments.
//
// Naming convention (enforced at registration and statically by qkbfly-lint
// rule O1): `snake_case` literals, `<subsystem>_<what>[_total|_seconds|
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

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/latency_histogram.h"

namespace qkbfly::obs {

/// Monotonically increasing event count. Updates are relaxed atomics: the
/// registry only promises eventual visibility of totals, never ordering
/// against the work being counted.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  Counter() = default;

 private:
  std::atomic<uint64_t> value_{0};
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

/// Log-bucketed latency distribution: a mutex around LatencyHistogram (the
/// bucketing, percentile, and merge logic live there). The lock is held for
/// a handful of arithmetic ops; contention is negligible at per-document or
/// per-query observation granularity.
class Histogram {
 public:
  void Observe(double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_.Record(seconds);
  }

  /// Point-in-time copy of the distribution.
  LatencyHistogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return histogram_;
  }

  uint64_t Count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return histogram_.count();
  }

  Histogram() = default;

 private:
  mutable std::mutex mutex_;
  LatencyHistogram histogram_;
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

  /// Registers (or re-points) a pull-style source for the named gauge: the
  /// provider is invoked under the registry mutex during Snapshot() and its
  /// return value stored into the gauge before the snapshot is taken. This
  /// is how lower layers (util/) export state without depending on obs/ —
  /// e.g. `graph_arena_bytes` pulls from Arena::TotalResidentBytes().
  void SetGaugeProvider(const char* name, int64_t (*provider)(),
                        const char* help = "");

  MetricsSnapshot Snapshot() const;

  /// `[a-z][a-z0-9_]*` — the snake_case contract of rule O1.
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
  std::map<std::string, int64_t (*)(), std::less<>> gauge_providers_;
  std::map<std::string, std::string, std::less<>> help_;
};

/// Convenience view builders over the default registry, used by the CLI and
/// benches. Snapshot once, render twice.
std::string DefaultRegistryPrometheusText();
std::string DefaultRegistryJson();

}  // namespace qkbfly::obs

#endif  // QKBFLY_OBS_METRICS_H_
