// Per-query structured tracing: one Trace is a tree of timed spans
// (retrieve -> fetch_or_compute -> process_document{annotate, graph_build,
// densify} + extract -> merge) with typed attributes (doc id, cache hit/miss,
// edge counts, shed/degraded flags). Span capture is opt-in per query: the
// pipeline threads a nullable TraceContext through its fan-out, and every
// instrumentation point is a single branch when no trace is attached — the
// compile-time default is metrics on, span capture off (no Trace object is
// ever allocated unless a caller asks for one).
//
// Thread-safety: one Trace may be written from many pool workers at once
// (spans append under a mutex); propagation across util/thread_pool is
// explicit — a TraceContext {trace, parent span} is captured by value into
// the submitted task, never through thread-local state, so work stealing and
// nested Submit() cannot misparent spans.
//
// Timing uses WallTimer offsets from the trace epoch. Traces are
// observational output only: they never feed KB bytes, so the byte-identical
// determinism tests pass with tracing enabled.
#ifndef QKBFLY_OBS_TRACE_H_
#define QKBFLY_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/timer.h"

namespace qkbfly::obs {

using SpanId = int32_t;
inline constexpr SpanId kNoSpan = -1;

/// One typed key/value pair on a span.
struct SpanAttribute {
  enum class Kind { kInt, kDouble, kBool, kString };
  std::string key;
  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  double double_value = 0.0;
  bool bool_value = false;
  std::string string_value;
};

/// One timed region. `start_s`/`end_s` are seconds since the trace epoch;
/// `end_s` is negative while the span is open.
struct Span {
  std::string name;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  double start_s = 0.0;
  double end_s = -1.0;
  std::vector<SpanAttribute> attributes;

  double DurationSeconds() const {
    return end_s < 0.0 ? 0.0 : end_s - start_s;
  }
};

/// A per-query span tree. Construction opens the root span (id 0); Finish()
/// (or the destructor) closes it. All methods are thread-safe. Root and span
/// names follow the metric naming contract (MetricsRegistry::IsValidName,
/// snake_case); any other name aborts (QKB_CHECK).
class Trace {
 public:
  explicit Trace(const char* root_name);
  ~Trace();

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  SpanId root() const { return 0; }

  /// Opens a child span; `parent` must be a span of this trace (kNoSpan
  /// parents to the root).
  SpanId StartSpan(const char* name, SpanId parent);
  void EndSpan(SpanId id);

  void AddAttribute(SpanId id, const char* key, int64_t value);
  void AddAttribute(SpanId id, const char* key, double value);
  void AddAttribute(SpanId id, const char* key, bool value);
  void AddAttribute(SpanId id, const char* key, std::string_view value);

  /// Ends the root span (idempotent). A trace must be finished before it is
  /// offered to a TraceSink.
  void Finish();
  bool finished() const;

  /// Root span duration; 0 until Finish().
  double DurationSeconds() const;

  const std::string& name() const { return root_name_; }

  /// Point-in-time copy of all spans (ids are indices into the result).
  std::vector<Span> Snapshot() const;

  /// The trace as one nested JSON object: spans carry "children" arrays,
  /// attributes render as a flat "attrs" object. Children appear in span
  /// start order, which is deterministic for the serial pipeline and
  /// input-order merged for the parallel one.
  std::string ToJson() const;

 private:
  std::string root_name_;
  WallTimer epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  bool finished_ = false;
};

/// The propagation handle: a nullable trace plus the parent span new work
/// should attach under. Copy it by value into thread-pool tasks.
struct TraceContext {
  Trace* trace = nullptr;
  SpanId parent = kNoSpan;

  bool enabled() const { return trace != nullptr; }
};

/// RAII span: opens on construction when the context is enabled, ends on
/// destruction (or an explicit End()). Near-zero cost when disabled — one
/// null check per operation, no allocation, no lock.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(TraceContext context, const char* name) : trace_(context.trace) {
    if (trace_ != nullptr) id_ = trace_->StartSpan(name, context.parent);
  }
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept
      : trace_(other.trace_), id_(other.id_) {
    other.trace_ = nullptr;
  }

  /// Context for child work under this span.
  TraceContext context() const { return {trace_, id_}; }

  template <typename T>
  void AddAttribute(const char* key, T value) {
    if (trace_ != nullptr) trace_->AddAttribute(id_, key, value);
  }

  void End() {
    if (trace_ != nullptr) {
      trace_->EndSpan(id_);
      trace_ = nullptr;
    }
  }

 private:
  Trace* trace_ = nullptr;
  SpanId id_ = kNoSpan;
};

/// Keeps the slowest-N finished traces by root duration (the queries worth
/// explaining). Thread-safe; Offer() is O(N) on a tie-breaking insertion,
/// which is fine for N <= a few dozen.
class TraceSink {
 public:
  explicit TraceSink(size_t capacity);

  /// Considers a finished trace for the slowest set.
  void Offer(std::shared_ptr<const Trace> trace);

  /// Slowest first.
  std::vector<std::shared_ptr<const Trace>> Slowest() const;

  size_t capacity() const { return capacity_; }

  /// JSON array of the retained traces (slowest first), each in
  /// Trace::ToJson form.
  std::string ToJson() const;

 private:
  size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<const Trace>> traces_;  ///< Sorted, slowest first.
};

}  // namespace qkbfly::obs

#endif  // QKBFLY_OBS_TRACE_H_
