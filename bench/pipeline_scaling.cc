// Parallel document-pipeline scaling bench: runs QkbflyEngine::BuildKb over
// the synthetic wiki+news corpus at increasing thread counts, verifies the
// KB is identical to the serial run, reports per-stage timings (mean + p95)
// and writes the machine-readable BENCH_pipeline.json
// ({name, docs, threads, wall_s, facts} records).
//
// One cold build of this corpus takes tens of milliseconds, so a single
// timing per thread count is dominated by first-touch costs (process-wide
// memos, page faults) and by load from other processes on shared cores.
// Each thread count therefore gets one untimed warm-up build; then rounds
// that build once per thread count, interleaved so a burst of outside load
// hits every thread count alike, repeat until every thread count has at
// least 7 builds and 1 s of timed work. The report is the median build.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/qkbfly.h"
#include "synth/dataset.h"
#include "util/bench_report.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace qkbfly {
namespace {

/// Canonical text form of a KB, used to check run-to-run identity.
std::string Serialize(const OnTheFlyKb& kb) {
  std::string out;
  char buf[64];
  for (const Fact& f : kb.facts()) {
    std::snprintf(buf, sizeof(buf), " conf=%.9f\n", f.confidence);
    out += kb.FactToString(f);
    out += buf;
  }
  for (const EmergingEntity& e : kb.emerging_entities()) {
    out += "emerging: " + e.representative + "\n";
  }
  return out;
}

int Run(bool smoke) {
  DatasetConfig config;
  config.wiki_eval_articles = smoke ? 6 : 60;
  config.news_docs = smoke ? 4 : 40;
  auto ds = BuildDataset(config);

  std::vector<const Document*> docs;
  for (const GoldDocument& gd : ds->wiki_eval) docs.push_back(&gd.doc);
  for (const GoldDocument& gd : ds->news) docs.push_back(&gd.doc);

  const size_t min_builds = smoke ? 1 : 7;
  const double min_seconds = smoke ? 0.0 : 1.0;
  std::printf("Pipeline scaling: BuildKb over %zu documents "
              "(%d hardware threads), median of >= %zu builds and >= %.1f s "
              "after a warm-up\n\n",
              docs.size(), ThreadPool::DefaultThreadCount(), min_builds,
              min_seconds);
  std::printf("%8s %10s %9s %8s %10s\n", "threads", "wall s", "speedup",
              "facts", "identical");

  struct Config {
    int threads = 1;
    std::unique_ptr<QkbflyEngine> engine;
    std::vector<double> walls;
    double timed = 0.0;
    TimingStats per_doc;
    StageTimingSummary stages;
    CacheStats loose;  ///< LooseCandidates memo delta over the timed builds.
    size_t facts = 0;
    bool identical = true;
  };
  std::vector<Config> configs;
  for (int threads : smoke ? std::vector<int>{1, 2}
                           : std::vector<int>{1, 2, 4, 8}) {
    EngineConfig engine_config;
    engine_config.num_threads = threads;
    Config c;
    c.threads = threads;
    c.engine = std::make_unique<QkbflyEngine>(
        ds->repository.get(), &ds->patterns, &ds->stats, engine_config);
    (void)c.engine->BuildKb(docs);  // untimed warm-up
    configs.push_back(std::move(c));
  }

  std::string serial_kb;
  auto done = [&] {
    for (const Config& c : configs) {
      if (c.walls.size() < min_builds || c.timed < min_seconds) return false;
    }
    return true;
  };
  std::vector<DocumentResult> results;
  while (!done()) {
    for (Config& c : configs) {
      const CacheStats loose_before = ds->repository->loose_cache_stats();
      WallTimer timer;
      OnTheFlyKb kb = c.engine->BuildKb(docs, &results);
      c.walls.push_back(timer.ElapsedSeconds());
      c.timed += c.walls.back();
      c.loose += ds->repository->loose_cache_stats() - loose_before;

      std::string serialized = Serialize(kb);
      if (serial_kb.empty()) serial_kb = serialized;  // the 1-thread build
      c.identical = c.identical && serialized == serial_kb;
      c.facts = kb.size();
      for (const DocumentResult& r : results) {
        c.per_doc.Add(r.seconds);
        c.stages.Add(r.timings);
      }
    }
  }

  BenchReport report;
  double serial_wall = 0.0;
  bool mismatches = false;
  for (Config& c : configs) {
    std::sort(c.walls.begin(), c.walls.end());
    const double wall = c.walls[c.walls.size() / 2];
    if (c.threads == 1) serial_wall = wall;
    if (!c.identical) mismatches = true;
    std::printf("%8d %10.4f %8.2fx %8zu %10s  (%zu builds)\n", c.threads,
                wall, serial_wall / wall, c.facts,
                c.identical ? "yes" : "NO << BUG", c.walls.size());

    // Cache columns: the LooseCandidates memo delta over the timed builds
    // plus the p95 of per-document wall time.
    BenchReport::CacheFields cache_fields;
    cache_fields.hits = c.loose.hits;
    cache_fields.misses = c.loose.misses;
    cache_fields.hit_rate = c.loose.HitRate();
    cache_fields.p95_ms = c.per_doc.Percentile(0.95) * 1e3;
    report.Add("pipeline_scaling", static_cast<int>(docs.size()), c.threads,
               wall, c.facts, cache_fields);
    std::printf("%s", c.stages.Report().c_str());
  }

  CacheStats cache = ds->repository->loose_cache_stats();
  std::printf("\nLooseCandidates cache: %llu lookups, hit rate %.1f%%\n",
              static_cast<unsigned long long>(cache.Lookups()),
              cache.HitRate() * 100.0);
  if (report.WriteJson("BENCH_pipeline.json")) {
    std::printf("Wrote BENCH_pipeline.json\n");
  }
  return mismatches ? 1 : 0;
}

}  // namespace
}  // namespace qkbfly

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return qkbfly::Run(smoke);
}
