#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "util/json.h"
#include "util/logging.h"

namespace qkbfly::obs {

MetricsRegistry& MetricsRegistry::Default() {
  // Leaky singleton: instrument pointers handed to components must survive
  // static destruction order, exactly like the TokenSymbols interner.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

bool MetricsRegistry::IsValidName(std::string_view name) {
  if (name.empty()) return false;
  if (!(name.front() >= 'a' && name.front() <= 'z')) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

namespace {

/// Shared get-or-create over one of the three instrument maps. The name must
/// not be registered in either `other` map (kind collision).
template <typename T, typename MapT, typename OtherA, typename OtherB>
T* GetInstrument(const char* name, const char* help, MapT& map,
                 const OtherA& other_a, const OtherB& other_b,
                 std::map<std::string, std::string, std::less<>>& help_map) {
  QKB_CHECK(MetricsRegistry::IsValidName(name))
      << "metric name '" << name << "' is not snake_case";
  auto it = map.find(name);
  if (it != map.end()) return it->second.get();
  QKB_CHECK(other_a.find(name) == other_a.end() &&
            other_b.find(name) == other_b.end())
      << "metric '" << name << "' already registered with a different kind";
  auto inserted = map.emplace(name, std::unique_ptr<T>(new T())).first;
  help_map.emplace(name, help);
  return inserted->second.get();
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const char* name, const char* help) {
  std::lock_guard<std::mutex> lock(mutex_);
  return GetInstrument<Counter>(name, help, counters_, gauges_, histograms_,
                                help_);
}

Gauge* MetricsRegistry::GetGauge(const char* name, const char* help) {
  std::lock_guard<std::mutex> lock(mutex_);
  return GetInstrument<Gauge>(name, help, gauges_, counters_, histograms_,
                              help_);
}

Histogram* MetricsRegistry::GetHistogram(const char* name, const char* help) {
  std::lock_guard<std::mutex> lock(mutex_);
  return GetInstrument<Histogram>(name, help, histograms_, counters_, gauges_,
                                  help_);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  auto help_for = [this](const std::string& name) {
    auto it = help_.find(name);
    return it == help_.end() ? std::string() : it->second;
  };
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, help_for(name), counter->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, help_for(name), gauge->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    // `histogram` is a Histogram, whose Snapshot takes only its own (rank 5)
    // mutex; the lint cannot type the structured binding.
    // qkbfly-lint: allow(C3)
    snapshot.histograms.push_back({name, help_for(name),
                                   histogram->Snapshot()});
  }
  return snapshot;
}

namespace {

void AppendHeader(std::string& out, const std::string& name,
                  const std::string& help, const char* type) {
  if (!help.empty()) {
    out += "# HELP " + name + " " + help + "\n";
  }
  out += "# TYPE " + name + " " + type + "\n";
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

std::string MetricsRegistry::ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  char buf[160];
  for (const auto& c : snapshot.counters) {
    AppendHeader(out, c.name, c.help, "counter");
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", c.name.c_str(),
                  c.value);
    out += buf;
  }
  for (const auto& g : snapshot.gauges) {
    AppendHeader(out, g.name, g.help, "gauge");
    std::snprintf(buf, sizeof(buf), "%s %" PRId64 "\n", g.name.c_str(),
                  g.value);
    out += buf;
  }
  for (const auto& h : snapshot.histograms) {
    AppendHeader(out, h.name, h.help, "histogram");
    uint64_t cumulative = 0;
    int last = h.histogram.MaxBucket();
    for (int b = 0; b <= last; ++b) {
      cumulative += h.histogram.BucketSamples(b);
      std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%s\"} %" PRIu64 "\n",
                    h.name.c_str(),
                    FormatDouble(
                        LatencyHistogram::BucketUpperBoundSeconds(b)).c_str(),
                    cumulative);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                  h.name.c_str(), h.histogram.count());
    out += buf;
    std::snprintf(buf, sizeof(buf), "%s_sum %s\n", h.name.c_str(),
                  FormatDouble(h.histogram.sum_seconds()).c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf), "%s_count %" PRIu64 "\n", h.name.c_str(),
                  h.histogram.count());
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::ToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  char buf[192];
  bool first = true;
  for (const auto& c : snapshot.counters) {
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %" PRIu64,
                  first ? "" : ",", c.name.c_str(), c.value);
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : snapshot.gauges) {
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %" PRId64,
                  first ? "" : ",", g.name.c_str(), g.value);
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : snapshot.histograms) {
    const LatencyHistogram& hist = h.histogram;
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    \"%s\": {\"count\": %" PRIu64
        ", \"sum_s\": %s, \"min_s\": %s, \"max_s\": %s",
        first ? "" : ",", h.name.c_str(), hist.count(),
        FormatDouble(hist.sum_seconds()).c_str(),
        FormatDouble(hist.min_seconds()).c_str(),
        FormatDouble(hist.max_seconds()).c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"p50_s\": %s, \"p95_s\": %s, \"p99_s\": %s}",
                  FormatDouble(hist.PercentileSeconds(0.50)).c_str(),
                  FormatDouble(hist.PercentileSeconds(0.95)).c_str(),
                  FormatDouble(hist.PercentileSeconds(0.99)).c_str());
    out += buf;
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// JSON schema validation over the util/json DOM
// ---------------------------------------------------------------------------

namespace {

/// Checks one `{"name": <value>, ...}` section: snake_case names, each
/// value accepted by `value_ok`.
template <typename Fn>
bool CheckMetricMap(json::Value section, const char* kind, Fn value_ok,
                    std::string* error) {
  if (!section.is_object()) {
    *error = std::string(kind) + " section is not an object";
    return false;
  }
  for (size_t i = 0; i < section.size(); ++i) {
    std::string name(section.key(i));
    if (!MetricsRegistry::IsValidName(name)) {
      *error = std::string(kind) + " name '" + name + "' is not snake_case";
      return false;
    }
    if (!value_ok(section.at(i), name)) return false;
  }
  return true;
}

}  // namespace

bool MetricsRegistry::ValidateJson(std::string_view text, std::string* error) {
  std::string local;
  std::string* err = error != nullptr ? error : &local;
  json::Document doc;
  if (!doc.Parse(text, err)) return false;
  json::Value root = doc.root();
  static const char* kSections[] = {"counters", "gauges", "histograms"};
  if (!root.is_object() || root.size() != 3) {
    *err = "expected an object with counters, gauges and histograms";
    return false;
  }
  for (size_t i = 0; i < 3; ++i) {
    if (root.key(i) != kSections[i]) {
      *err = std::string("expected section '") + kSections[i] + "', got '" +
             std::string(root.key(i)) + "'";
      return false;
    }
  }

  auto number = [&](json::Value value, const std::string& name) {
    if (value.is_number()) return true;
    *err = "metric '" + name + "' is not a number";
    return false;
  };
  auto histogram = [&](json::Value value, const std::string& name) {
    static const char* kKeys[] = {"count", "sum_s", "min_s", "max_s",
                                  "p50_s", "p95_s", "p99_s"};
    if (!value.is_object() || value.size() != 7) {
      *err = "histogram '" + name + "' is not an object of 7 numbers";
      return false;
    }
    for (const char* key : kKeys) {
      if (!value.Find(key).is_number()) {
        *err = "histogram '" + name + "' missing number '" + key + "'";
        return false;
      }
    }
    return true;
  };
  return CheckMetricMap(root.at(0), "counter", number, err) &&
         CheckMetricMap(root.at(1), "gauge", number, err) &&
         CheckMetricMap(root.at(2), "histogram", histogram, err);
}

std::string DefaultRegistryPrometheusText() {
  return MetricsRegistry::ToPrometheusText(MetricsRegistry::Default().Snapshot());
}

std::string DefaultRegistryJson() {
  return MetricsRegistry::ToJson(MetricsRegistry::Default().Snapshot());
}

}  // namespace qkbfly::obs
