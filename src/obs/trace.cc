#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"
#include "util/logging.h"

namespace qkbfly::obs {

Trace::Trace(const char* root_name) : root_name_(root_name) {
  Span root;
  root.name = root_name_;
  root.id = 0;
  root.parent = kNoSpan;
  root.start_s = 0.0;
  spans_.push_back(std::move(root));
}

Trace::~Trace() { Finish(); }

SpanId Trace::StartSpan(const char* name, SpanId parent) {
  double now = epoch_.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  if (parent == kNoSpan) parent = 0;
  QKB_CHECK_GE(parent, 0);
  QKB_CHECK_LT(static_cast<size_t>(parent), spans_.size());
  Span span;
  span.name = name;
  span.id = static_cast<SpanId>(spans_.size());
  span.parent = parent;
  span.start_s = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::EndSpan(SpanId id) {
  double now = epoch_.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  QKB_CHECK_GE(id, 0);
  QKB_CHECK_LT(static_cast<size_t>(id), spans_.size());
  Span& span = spans_[static_cast<size_t>(id)];
  if (span.end_s < 0.0) span.end_s = now;
}

namespace {

SpanAttribute MakeAttribute(const char* key) {
  SpanAttribute attr;
  attr.key = key;
  return attr;
}

}  // namespace

void Trace::AddAttribute(SpanId id, const char* key, int64_t value) {
  SpanAttribute attr = MakeAttribute(key);
  attr.kind = SpanAttribute::Kind::kInt;
  attr.int_value = value;
  std::lock_guard<std::mutex> lock(mutex_);
  QKB_CHECK_LT(static_cast<size_t>(id), spans_.size());
  spans_[static_cast<size_t>(id)].attributes.push_back(std::move(attr));
}

void Trace::AddAttribute(SpanId id, const char* key, double value) {
  SpanAttribute attr = MakeAttribute(key);
  attr.kind = SpanAttribute::Kind::kDouble;
  attr.double_value = value;
  std::lock_guard<std::mutex> lock(mutex_);
  QKB_CHECK_LT(static_cast<size_t>(id), spans_.size());
  spans_[static_cast<size_t>(id)].attributes.push_back(std::move(attr));
}

void Trace::AddAttribute(SpanId id, const char* key, bool value) {
  SpanAttribute attr = MakeAttribute(key);
  attr.kind = SpanAttribute::Kind::kBool;
  attr.bool_value = value;
  std::lock_guard<std::mutex> lock(mutex_);
  QKB_CHECK_LT(static_cast<size_t>(id), spans_.size());
  spans_[static_cast<size_t>(id)].attributes.push_back(std::move(attr));
}

void Trace::AddAttribute(SpanId id, const char* key, std::string_view value) {
  SpanAttribute attr = MakeAttribute(key);
  attr.kind = SpanAttribute::Kind::kString;
  attr.string_value = std::string(value);
  std::lock_guard<std::mutex> lock(mutex_);
  QKB_CHECK_LT(static_cast<size_t>(id), spans_.size());
  spans_[static_cast<size_t>(id)].attributes.push_back(std::move(attr));
}

void Trace::Finish() {
  double now = epoch_.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  // Close any spans left open (a worker that threw), outermost last so
  // children never outlive their parent.
  for (size_t i = spans_.size(); i-- > 0;) {
    if (spans_[i].end_s < 0.0) spans_[i].end_s = now;
  }
  finished_ = true;
}

bool Trace::finished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

double Trace::DurationSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.empty() ? 0.0 : spans_[0].DurationSeconds();
}

std::vector<Span> Trace::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

void AppendAttributes(std::string& out, const Span& span) {
  if (span.attributes.empty()) return;
  out += ", \"attrs\": {";
  char buf[64];
  for (size_t i = 0; i < span.attributes.size(); ++i) {
    const SpanAttribute& attr = span.attributes[i];
    if (i > 0) out += ", ";
    json::AppendJsonString(attr.key, &out);
    out += ": ";
    switch (attr.kind) {
      case SpanAttribute::Kind::kInt:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(attr.int_value));
        out += buf;
        break;
      case SpanAttribute::Kind::kDouble:
        std::snprintf(buf, sizeof(buf), "%.9g", attr.double_value);
        out += buf;
        break;
      case SpanAttribute::Kind::kBool:
        out += attr.bool_value ? "true" : "false";
        break;
      case SpanAttribute::Kind::kString:
        json::AppendJsonString(attr.string_value, &out);
        break;
    }
  }
  out += '}';
}

void AppendSpanJson(std::string& out, const std::vector<Span>& spans,
                    const std::vector<std::vector<SpanId>>& children,
                    SpanId id) {
  const Span& span = spans[static_cast<size_t>(id)];
  char buf[96];
  out += "{\"name\": ";
  json::AppendJsonString(span.name, &out);
  std::snprintf(buf, sizeof(buf), ", \"start_ms\": %.6f, \"duration_ms\": %.6f",
                span.start_s * 1e3, span.DurationSeconds() * 1e3);
  out += buf;
  AppendAttributes(out, span);
  const auto& kids = children[static_cast<size_t>(id)];
  if (!kids.empty()) {
    out += ", \"children\": [";
    for (size_t i = 0; i < kids.size(); ++i) {
      if (i > 0) out += ", ";
      AppendSpanJson(out, spans, children, kids[i]);
    }
    out += ']';
  }
  out += '}';
}

}  // namespace

std::string Trace::ToJson() const {
  std::vector<Span> spans = Snapshot();
  std::vector<std::vector<SpanId>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent != kNoSpan) {
      children[static_cast<size_t>(span.parent)].push_back(span.id);
    }
  }
  // Children in start order; StartSpan appends monotonically but parallel
  // workers interleave, so sort by (start, id) for a stable layout.
  for (auto& kids : children) {
    std::stable_sort(kids.begin(), kids.end(), [&](SpanId a, SpanId b) {
      const Span& sa = spans[static_cast<size_t>(a)];
      const Span& sb = spans[static_cast<size_t>(b)];
      if (sa.start_s != sb.start_s) return sa.start_s < sb.start_s;
      return sa.id < sb.id;
    });
  }
  std::string out;
  AppendSpanJson(out, spans, children, 0);
  return out;
}

TraceSink::TraceSink(size_t capacity) : capacity_(capacity) {}

void TraceSink::Offer(std::shared_ptr<const Trace> trace) {
  if (trace == nullptr || capacity_ == 0) return;
  QKB_CHECK(trace->finished()) << "TraceSink::Offer requires a finished trace";
  double duration = trace->DurationSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  auto at = std::upper_bound(
      traces_.begin(), traces_.end(), duration,
      [](double d, const std::shared_ptr<const Trace>& t) {
        return d > t->DurationSeconds();
      });
  traces_.insert(at, std::move(trace));
  if (traces_.size() > capacity_) traces_.resize(capacity_);
}

std::vector<std::shared_ptr<const Trace>> TraceSink::Slowest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return traces_;
}

std::string TraceSink::ToJson() const {
  std::vector<std::shared_ptr<const Trace>> traces = Slowest();
  std::string out = "[";
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) out += ",\n ";
    out += traces[i]->ToJson();
  }
  out += "]\n";
  return out;
}

}  // namespace qkbfly::obs
