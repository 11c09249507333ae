#include "util/bench_report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>

#include "util/json.h"

namespace qkbfly {

void BenchReport::Add(std::string name, int docs, int threads, double wall_s,
                      uint64_t facts) {
  Entry entry;
  entry.name = std::move(name);
  entry.docs = docs;
  entry.threads = threads;
  entry.wall_s = wall_s;
  entry.facts = facts;
  entries_.push_back(std::move(entry));
}

void BenchReport::Add(std::string name, int docs, int threads, double wall_s,
                      uint64_t facts, const CacheFields& cache) {
  Add(std::move(name), docs, threads, wall_s, facts);
  entries_.back().has_cache = true;
  entries_.back().cache = cache;
}

void BenchReport::Add(std::string name, int docs, int threads, double wall_s,
                      uint64_t facts, const StageFields& stage) {
  Add(std::move(name), docs, threads, wall_s, facts);
  entries_.back().has_stage = true;
  entries_.back().stage = stage;
}

void BenchReport::Add(std::string name, int docs, int threads, double wall_s,
                      uint64_t facts, const QualityFields& quality) {
  Add(std::move(name), docs, threads, wall_s, facts);
  entries_.back().has_quality = true;
  entries_.back().quality = quality;
}

bool BenchReport::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::string name;  // escaped, so it holds no NUL for %s
    json::AppendJsonString(e.name, &name);
    std::fprintf(f,
                 "  {\"name\": %s, \"docs\": %d, \"threads\": %d, "
                 "\"wall_s\": %.6f, \"facts\": %" PRIu64,
                 name.c_str(), e.docs, e.threads, e.wall_s, e.facts);
    if (e.has_cache) {
      std::fprintf(f,
                   ", \"hits\": %" PRIu64 ", \"misses\": %" PRIu64
                   ", \"hit_rate\": %.4f, \"p95_ms\": %.4f",
                   e.cache.hits, e.cache.misses, e.cache.hit_rate,
                   e.cache.p95_ms);
    }
    if (e.has_stage) {
      std::fprintf(f,
                   ", \"items\": %" PRIu64
                   ", \"rate\": %.2f, \"p50_ms\": %.4f, \"p95_ms\": %.4f",
                   e.stage.items, e.stage.rate, e.stage.p50_ms,
                   e.stage.p95_ms);
    }
    if (e.has_quality) {
      std::fprintf(f,
                   ", \"precision\": %.4f, \"recall\": %.4f, \"f1\": %.4f"
                   ", \"mst_share\": %.4f",
                   e.quality.precision, e.quality.recall, e.quality.f1,
                   e.quality.mst_share);
    }
    std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

namespace {

constexpr std::string_view kKeys[] = {"name",      "docs",   "threads", "wall_s",
                                      "facts",     "hits",   "misses",  "hit_rate",
                                      "p95_ms",    "items",  "rate",    "p50_ms",
                                      "precision", "recall", "f1",      "mst_share"};

/// Reads optional column `key` when present and marks its group present.
template <typename T>
bool ReadOptional(json::Value record, const char* key, T* out, bool* group) {
  json::Value value = record.Find(key);
  if (!value) return true;
  *group = true;
  if constexpr (std::is_same_v<T, uint64_t>) {
    return value.GetUint64(out);
  } else {
    return value.GetDouble(out);
  }
}

/// Checks and reads one report entry; false with `error` set on a
/// violation.
bool ReadEntry(json::Value record, BenchReport::Entry* entry,
               std::string* error) {
  if (!record.is_object()) {
    *error = "not an object";
    return false;
  }
  for (size_t i = 0; i < record.size(); ++i) {
    if (std::find(std::begin(kKeys), std::end(kKeys), record.key(i)) ==
        std::end(kKeys)) {
      *error = "unknown key \"" + std::string(record.key(i)) + "\"";
      return false;
    }
  }
  json::Value name = record.Find("name");
  uint64_t docs = 0;
  uint64_t threads = 0;
  constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
  if (!name.is_string() || name.text().empty() ||
      !record.Find("docs").GetUint64(&docs) || docs > kIntMax ||
      !record.Find("threads").GetUint64(&threads) || threads > kIntMax ||
      !record.Find("wall_s").GetDouble(&entry->wall_s) ||
      !record.Find("facts").GetUint64(&entry->facts)) {
    *error = "bad or missing required key (name/docs/threads/wall_s/facts)";
    return false;
  }
  entry->name = name.text();
  entry->docs = static_cast<int>(docs);
  entry->threads = static_cast<int>(threads);
  // p95_ms is a column of both the cache and the stage group.
  double p95_ms = 0.0;
  bool has_p95 = false;
  if (!ReadOptional(record, "hits", &entry->cache.hits, &entry->has_cache) ||
      !ReadOptional(record, "misses", &entry->cache.misses,
                    &entry->has_cache) ||
      !ReadOptional(record, "hit_rate", &entry->cache.hit_rate,
                    &entry->has_cache) ||
      !ReadOptional(record, "items", &entry->stage.items, &entry->has_stage) ||
      !ReadOptional(record, "rate", &entry->stage.rate, &entry->has_stage) ||
      !ReadOptional(record, "p50_ms", &entry->stage.p50_ms,
                    &entry->has_stage) ||
      !ReadOptional(record, "p95_ms", &p95_ms, &has_p95) ||
      !ReadOptional(record, "precision", &entry->quality.precision,
                    &entry->has_quality) ||
      !ReadOptional(record, "recall", &entry->quality.recall,
                    &entry->has_quality) ||
      !ReadOptional(record, "f1", &entry->quality.f1, &entry->has_quality) ||
      !ReadOptional(record, "mst_share", &entry->quality.mst_share,
                    &entry->has_quality)) {
    *error = "bad optional column";
    return false;
  }
  if (entry->has_cache) entry->cache.p95_ms = p95_ms;
  if (entry->has_stage) entry->stage.p95_ms = p95_ms;
  return true;
}

}  // namespace

bool BenchReport::ReadJsonFile(const std::string& path,
                               std::vector<Entry>* entries,
                               std::string* error) {
  std::string local;
  std::string* err = error != nullptr ? error : &local;
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << file.rdbuf();
  json::Document doc;
  if (!doc.Parse(text.str(), err)) return false;
  json::Value root = doc.root();
  if (!root.is_array()) {
    *err = "report is not an array";
    return false;
  }
  entries->assign(root.size(), Entry());
  for (size_t i = 0; i < root.size(); ++i) {
    if (!ReadEntry(root.at(i), &(*entries)[i], err)) {
      *err = "entry " + std::to_string(i) + ": " + *err;
      return false;
    }
  }
  return true;
}

}  // namespace qkbfly
