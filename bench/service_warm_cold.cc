// Serving-layer warm/cold bench: replays an entity-query workload against
// KbService three times —
//   cold        empty tiers, every answer runs the full pipeline;
//   doc-warm    query tier cleared first, answers served from the
//               per-document cache (retrieval + canonicalization still run);
//   query-warm  answers served whole from the query-level cache.
// Verifies all three passes produce byte-identical KBs (the Serialize
// round-trip contract) and that query-warm p95 is strictly below doc-warm
// p95, then writes BENCH_service.json (cold + doc-warm, the historical
// schema) and BENCH_store.json (all three passes plus fact-store counters).
// Exits non-zero on an identity or ordering violation so the bench-smoke
// ctest entry catches regressions.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "service/kb_service.h"
#include "synth/dataset.h"
#include "util/bench_report.h"
#include "util/latency_histogram.h"

namespace qkbfly {
namespace {

struct PassResult {
  LatencyHistogram latency;
  CacheStats doc_cache;
  CacheStats query_cache;
  uint64_t facts = 0;
  double wall_s = 0.0;
  std::vector<std::string> kbs;  ///< OnTheFlyKb::Serialize bytes per query.
};

PassResult RunPass(KbService* service, const std::vector<std::string>& queries) {
  PassResult pass;
  for (const std::string& q : queries) {
    KbService::QueryResult result = service->Answer(q);
    pass.latency.Record(result.stats.total_s);
    pass.doc_cache += result.stats.cache;
    pass.query_cache += result.stats.query_cache;
    pass.facts += result.kb.size();
    pass.wall_s += result.stats.total_s;
    pass.kbs.push_back(result.kb.Serialize());
  }
  return pass;
}

void Report(const char* name, const PassResult& pass) {
  std::printf("%-10s %s\n           doc tier: %llu hits / %llu misses  "
              "query tier: %llu hits / %llu misses\n",
              name, pass.latency.Report().c_str(),
              static_cast<unsigned long long>(pass.doc_cache.hits),
              static_cast<unsigned long long>(pass.doc_cache.misses),
              static_cast<unsigned long long>(pass.query_cache.hits),
              static_cast<unsigned long long>(pass.query_cache.misses));
}

BenchReport::CacheFields Fields(const CacheStats& cache,
                                const LatencyHistogram& latency) {
  BenchReport::CacheFields fields;
  fields.hits = cache.hits;
  fields.misses = cache.misses;
  fields.hit_rate = cache.HitRate();
  fields.p95_ms = latency.PercentileSeconds(0.95) * 1e3;
  return fields;
}

int Run(bool smoke) {
  DatasetConfig config;
  config.wiki_eval_articles = smoke ? 8 : 24;
  config.news_docs = smoke ? 6 : 16;
  auto ds = BuildDataset(config);
  DocumentStore wiki;
  DocumentStore news;
  for (const GoldDocument& gd : ds->wiki_eval) (void)wiki.Add(gd.doc);
  for (const GoldDocument& gd : ds->news) (void)news.Add(gd.doc);
  SearchEngine search(&wiki, &news);
  QkbflyEngine engine(ds->repository.get(), &ds->patterns, &ds->stats,
                      EngineConfig());
  KbService service(&engine, &search);

  std::vector<std::string> queries;
  for (const GoldDocument& gd : ds->wiki_eval) queries.push_back(gd.doc.title);

  std::printf("Service warm/cold: %zu entity queries over %zu wiki + %zu news "
              "documents\n\n",
              queries.size(), wiki.size(), news.size());

  PassResult cold = RunPass(&service, queries);
  // Doc-warm pass: drop the query tier so the doc tier has to answer.
  service.ClearQueryTier();
  PassResult doc_warm = RunPass(&service, queries);
  // Query-warm pass: the doc-warm pass just refilled the query tier.
  PassResult query_warm = RunPass(&service, queries);

  Report("cold", cold);
  Report("doc-warm", doc_warm);
  Report("query-warm", query_warm);
  std::printf("           store: %zu facts, %zu qa pairs\n",
              service.fact_store()->fact_count(),
              service.fact_store()->qa_pairs().size());

  int failures = 0;
  bool identical = cold.kbs == doc_warm.kbs && cold.kbs == query_warm.kbs;
  double cold_p95 = cold.latency.PercentileSeconds(0.95);
  double doc_warm_p95 = doc_warm.latency.PercentileSeconds(0.95);
  double query_warm_p95 = query_warm.latency.PercentileSeconds(0.95);
  std::printf("\np95: cold %.3fms  doc-warm %.3fms  query-warm %.3fms   "
              "all passes byte-identical: %s\n",
              cold_p95 * 1e3, doc_warm_p95 * 1e3, query_warm_p95 * 1e3,
              identical ? "yes" : "NO << BUG");
  if (!identical) {
    std::printf("WARM/COLD MISMATCH — a cache tier is unsound\n");
    ++failures;
  }
  if (doc_warm.doc_cache.HitRate() <= 0.9) {
    std::printf("WARNING: doc-warm hit rate %.1f%% <= 90%%\n",
                doc_warm.doc_cache.HitRate() * 100.0);
  }
  if (doc_warm_p95 >= cold_p95) {
    std::printf("WARNING: doc-warm p95 not below cold p95\n");
  }
  if (query_warm_p95 >= doc_warm_p95) {
    std::printf("FAIL: query-warm p95 not strictly below doc-warm p95\n");
    ++failures;
  }

  BenchReport service_report;
  service_report.Add("service_cold", static_cast<int>(queries.size()), 1,
                     cold.wall_s, cold.facts,
                     Fields(cold.doc_cache, cold.latency));
  service_report.Add("service_warm", static_cast<int>(queries.size()), 1,
                     doc_warm.wall_s, doc_warm.facts,
                     Fields(doc_warm.doc_cache, doc_warm.latency));
  if (service_report.WriteJson("BENCH_service.json")) {
    std::printf("Wrote BENCH_service.json\n");
  }

  // The store report carries the query-tier columns: doc-tier counters for
  // cold/doc-warm (the tier that did the work), query-tier counters for the
  // query-warm pass.
  BenchReport store_report;
  store_report.Add("store_cold", static_cast<int>(queries.size()), 1,
                   cold.wall_s, cold.facts,
                   Fields(cold.doc_cache, cold.latency));
  store_report.Add("store_doc_warm", static_cast<int>(queries.size()), 1,
                   doc_warm.wall_s, doc_warm.facts,
                   Fields(doc_warm.doc_cache, doc_warm.latency));
  store_report.Add("store_query_warm", static_cast<int>(queries.size()), 1,
                   query_warm.wall_s, query_warm.facts,
                   Fields(query_warm.query_cache, query_warm.latency));
  if (!store_report.WriteJson("BENCH_store.json")) {
    std::printf("FAIL: cannot write BENCH_store.json\n");
    ++failures;
  } else {
    std::vector<BenchReport::Entry> written;
    std::string error;
    if (!BenchReport::ReadJsonFile("BENCH_store.json", &written, &error)) {
      std::printf("FAIL: BENCH_store.json schema: %s\n", error.c_str());
      ++failures;
    } else {
      std::printf("Wrote BENCH_store.json\n");
    }
  }
  return failures == 0 ? 0 : 1;
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
