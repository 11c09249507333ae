// qkbfly_serve: replay a query workload against the serving layer and print
// a metrics report — per-query latency with cache hit ratio, warm vs cold,
// the end-to-end latency histogram (p50/p95/p99), and the counters of every
// memo in the system: the query tier (QueryKbCache), the doc tier
// (DocumentResultCache) and the LooseCandidates memo, all memo::ShardedLru
// instances.
//
// Usage:
//   qkbfly_serve [workload_file] [--repeat N] [--threads N] [--cache-mb M]
//                [--parser MODE] [--parser-threshold X]
//                [--store-path FILE] [--metrics] [--metrics-out FILE]
//                [--trace-out FILE] [--trace-keep N] [--smoke]
//
// The workload file holds one entity query per line (repeats allowed; lines
// starting with '#' are skipped). Without a file, a default workload is
// generated from the synthetic corpus: every wiki entity queried --repeat
// times, which exercises exactly the repeated-query reuse the paper's demo
// keeps processed sentences around for.
//
// Persistence:
//   --store-path F     load the fact store from F before the replay (if F
//                      exists; repeated questions are then served from the
//                      persisted QA pairs) and save it back after, so the
//                      knowledge accumulated by one run carries to the next
//
// Parsing dial (src/parser/router.h):
//   --parser MODE      dependency-parser backend: linear (default), mst, or
//                      adaptive (per-sentence complexity routing)
//   --parser-threshold X
//                      adaptive routing threshold: sentences scoring >= X go
//                      to the MST parser (0 = all-MST, inf = all-linear)
//
// Observability flags:
//   --metrics          print the full registry (Prometheus text + JSON)
//   --metrics-out F    write the registry JSON export to F
//   --trace-out F      capture per-query span traces, write slowest-N to F
//   --trace-keep N     how many slowest traces to retain (default 5)
//   --smoke            tiny corpus/workload for CI; JSON exports are schema-
//                      validated and the run fails on a violation
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/router.h"
#include "service/kb_service.h"
#include "synth/dataset.h"
#include "util/latency_histogram.h"

using namespace qkbfly;

namespace {

std::vector<std::string> LoadWorkload(const char* path) {
  std::vector<std::string> queries;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open workload file %s\n", path);
    std::exit(1);
  }
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    queries.push_back(line);
  }
  return queries;
}

bool WriteFile(const char* path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  out << contents;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload_path = nullptr;
  const char* metrics_out = nullptr;
  const char* trace_out = nullptr;
  const char* store_path = nullptr;
  int repeat = 3;
  int threads = 1;
  size_t cache_mb = 64;
  size_t trace_keep = 5;
  bool print_metrics = false;
  bool trace_requested = false;
  bool smoke = false;
  ParserMode parser_mode = ParserMode::kLinear;
  double parser_threshold = kDefaultParserComplexityThreshold;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cache-mb") == 0 && i + 1 < argc) {
      cache_mb = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--parser") == 0 && i + 1 < argc) {
      if (!ParseParserMode(argv[++i], &parser_mode)) {
        std::fprintf(stderr, "unknown --parser mode %s "
                     "(expected linear|mst|adaptive)\n", argv[i]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--parser-threshold") == 0 &&
               i + 1 < argc) {
      parser_threshold = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--store-path") == 0 && i + 1 < argc) {
      store_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      print_metrics = true;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
      trace_requested = true;
    } else if (std::strcmp(argv[i], "--trace-keep") == 0 && i + 1 < argc) {
      trace_keep = static_cast<size_t>(std::atol(argv[++i]));
      trace_requested = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      workload_path = argv[i];
    }
  }

  // Corpus, repositories and search index (the demo's two-source frontend).
  DatasetConfig dataset_config;
  dataset_config.wiki_eval_articles = smoke ? 6 : 24;
  dataset_config.news_docs = smoke ? 4 : 16;
  if (smoke) repeat = 2;
  auto dataset = BuildDataset(dataset_config);
  DocumentStore wiki;
  DocumentStore news;
  for (const GoldDocument& gd : dataset->wiki_eval) (void)wiki.Add(gd.doc);
  for (const GoldDocument& gd : dataset->news) (void)news.Add(gd.doc);
  SearchEngine search(&wiki, &news);
  EngineConfig engine_config;
  engine_config.parser_mode = parser_mode;
  engine_config.parser_complexity_threshold = parser_threshold;
  QkbflyEngine engine(dataset->repository.get(), &dataset->patterns,
                      &dataset->stats, engine_config);

  // With --store-path, load accumulated knowledge from a previous run (a
  // missing file just means a first run) and serve repeated questions from
  // the persisted QA pairs.
  FactStore store;
  KbServiceOptions options;
  options.cache.byte_budget = cache_mb << 20;
  options.num_threads = threads;
  if (trace_requested) options.keep_slowest_traces = trace_keep;
  if (store_path != nullptr) {
    Status loaded = store.Load(store_path);
    if (loaded.ok()) {
      std::printf("loaded fact store %s: %zu facts, %zu qa pairs\n",
                  store_path, store.fact_count(),
                  store.answers().entry_count());
    } else if (loaded.code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "cannot load fact store %s: %s\n", store_path,
                   loaded.ToString().c_str());
      return 1;
    }
    options.fact_store = &store;
  }
  KbService service(&engine, &search, options);

  std::vector<std::string> queries;
  if (workload_path != nullptr) {
    queries = LoadWorkload(workload_path);
  } else {
    std::vector<std::string> entities;
    for (const GoldDocument& gd : dataset->wiki_eval) {
      entities.push_back(gd.doc.title);
    }
    for (int round = 0; round < repeat; ++round) {
      for (const std::string& e : entities) queries.push_back(e);
    }
  }
  if (queries.empty()) {
    std::fprintf(stderr, "empty workload\n");
    return 1;
  }

  std::printf("qkbfly_serve: %zu queries, %d worker thread(s), "
              "%zu MiB result cache, parser=%s",
              queries.size(), threads, cache_mb, ParserModeName(parser_mode));
  if (parser_mode == ParserMode::kAdaptive) {
    std::printf(" (threshold %.2f)", parser_threshold);
  }
  std::printf("\n\n");
  std::printf("%-28s %6s %6s %8s %10s %7s\n", "query", "docs", "facts",
              "hitrate", "latency ms", "path");

  LatencyHistogram latency;
  LatencyHistogram cold_latency;
  LatencyHistogram warm_latency;
  size_t query_tier_hits = 0;
  size_t store_serves = 0;
  for (const std::string& query : queries) {
    KbService::QueryResult result = service.Answer(query);
    const ServiceStats& s = result.stats;
    // "warm" covers every path that skipped per-document extraction: a
    // query-tier hit, a store-served answer, or an all-hits doc-tier pass.
    bool warm = s.query_cache_hit || s.served_from_store ||
                (s.cache.misses == 0 && s.documents > 0);
    latency.Record(s.total_s);
    (warm ? warm_latency : cold_latency).Record(s.total_s);
    if (s.query_cache_hit) ++query_tier_hits;
    if (s.served_from_store) ++store_serves;
    const char* path = s.query_cache_hit ? "qwarm"
                       : s.served_from_store ? "store"
                       : warm ? "warm"
                              : "cold";
    std::printf("%-28.28s %6zu %6zu %7.0f%% %10.3f %7s\n", query.c_str(),
                s.documents, result.kb.size(), s.CacheHitRate() * 100.0,
                s.total_s * 1e3, path);
  }

  std::printf("\n== Service metrics ==\n");
  std::printf("queries      %llu\n",
              static_cast<unsigned long long>(latency.count()));
  std::printf("latency      %s\n", latency.Report().c_str());
  if (cold_latency.count() > 0) {
    std::printf("  cold       %s\n", cold_latency.Report().c_str());
  }
  if (warm_latency.count() > 0) {
    std::printf("  warm       %s\n", warm_latency.Report().c_str());
  }

  auto print_cache = [](const char* name, const CacheStats& c) {
    std::printf("%-22s %8llu hits %8llu misses %8llu evictions  "
                "hit rate %.1f%%\n",
                name, static_cast<unsigned long long>(c.hits),
                static_cast<unsigned long long>(c.misses),
                static_cast<unsigned long long>(c.evictions),
                c.HitRate() * 100.0);
  };
  std::printf("\n== Caches ==\n");
  print_cache("QueryKbCache", service.query_cache().stats());
  std::printf("%-22s %8zu entries, %zu / %zu bytes  "
              "(%zu query-tier hits, %zu store-served)\n", "",
              service.query_cache().entry_count(),
              service.query_cache().ApproxBytesUsed(),
              service.query_cache().byte_budget(), query_tier_hits,
              store_serves);
  print_cache("DocumentResultCache", service.cache().stats());
  std::printf("%-22s %8zu entries, %zu / %zu bytes\n", "",
              service.cache().entry_count(), service.cache().ApproxBytesUsed(),
              service.cache().byte_budget());
  print_cache("LooseCandidates memo", dataset->repository->loose_cache_stats());
  std::printf("%-22s %8zu facts, %zu qa pairs, %zu bytes\n", "FactStore",
              service.fact_store()->fact_count(),
              service.fact_store()->answers().entry_count(),
              service.fact_store()->ApproxBytesUsed());

  if (parser_mode == ParserMode::kAdaptive) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    uint64_t to_linear =
        reg.GetCounter("parser_route_linear_total",
                       "Sentences routed to the linear parser")->Value();
    uint64_t to_mst =
        reg.GetCounter("parser_route_mst_total",
                       "Sentences routed to the MST parser")->Value();
    uint64_t routed = to_linear + to_mst;
    std::printf("\n== Parser routing ==\n");
    std::printf("linear       %llu\nmst          %llu  (%.1f%% of %llu "
                "sentences)\n",
                static_cast<unsigned long long>(to_linear),
                static_cast<unsigned long long>(to_mst),
                routed == 0 ? 0.0 : 100.0 * static_cast<double>(to_mst) /
                                        static_cast<double>(routed),
                static_cast<unsigned long long>(routed));
  }

  // Registry exports. The JSON is schema-checked before it is printed or
  // written, so a malformed exporter fails the run (and the smoke ctest).
  if (print_metrics || metrics_out != nullptr) {
    std::string json = obs::DefaultRegistryJson();
    std::string error;
    if (!obs::MetricsRegistry::ValidateJson(json, &error)) {
      std::fprintf(stderr, "metrics JSON failed schema check: %s\n",
                   error.c_str());
      return 1;
    }
    if (print_metrics) {
      std::printf("\n== Metrics registry (Prometheus) ==\n%s",
                  obs::DefaultRegistryPrometheusText().c_str());
      std::printf("\n== Metrics registry (JSON) ==\n%s\n", json.c_str());
    }
    if (metrics_out != nullptr && !WriteFile(metrics_out, json)) return 1;
  }

  if (trace_out != nullptr) {
    std::vector<std::shared_ptr<const obs::Trace>> slowest =
        service.traces().Slowest();
    if (slowest.empty()) {
      std::fprintf(stderr, "no traces captured\n");
      return 1;
    }
    if (!WriteFile(trace_out, service.traces().ToJson())) return 1;
    std::printf("\nwrote %zu trace(s) to %s (slowest %.3f ms)\n",
                slowest.size(), trace_out,
                slowest.front()->DurationSeconds() * 1e3);
  }

  if (store_path != nullptr) {
    Status saved = store.Save(store_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "cannot save fact store %s: %s\n", store_path,
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("\nsaved fact store %s: %zu facts, %zu qa pairs\n", store_path,
                store.fact_count(), store.answers().entry_count());
  }
  return 0;
}
