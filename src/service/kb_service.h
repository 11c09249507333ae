// The serving layer: fronts SearchEngine + QkbflyEngine for concurrent
// query traffic through two cache tiers plus a persistent fact store:
//
//   query tier (QueryKbCache)  — whole answered queries, keyed by
//     (normalized question, corpus epoch, config fingerprint); a hit skips
//     everything, including retrieval.
//   doc tier (DocumentResultCache) — each document's canonical facts
//     (DocumentFacts, from Canonicalizer::Extract, ~2 KB each) keyed by
//     (document id, config fingerprint) and shared across queries; on a
//     query-tier miss only retrieval and Canonicalizer::Merge run per
//     request for documents already extracted. A miss runs ProcessDocument
//     then Extract and drops the DocumentResult (~91 KB), so the tier's
//     byte budget holds ~45x more documents than it would whole results.
//   fact store (FactStore)     — canonicalized facts + QA pairs accumulated
//     across queries, optionally persisted (Save/Load) and optionally
//     serving repeated questions across process restarts.
//
// Both cache tiers are memo::ShardedLru instances (memo/sharded_lru.h): one
// sharded, byte-budgeted, single-flight LRU over two value types.
//
// Corpus-epoch contract: every Answer() syncs the tiers to the current
// epoch (SearchEngine::epoch(), else EngineConfig::corpus_epoch); a bump
// lazily invalidates both tiers and stales the store's records. The doc
// tier's keys carry no epoch, so its EvictAll is the correctness-critical
// half of a bump; the query tier's keys do, so its EvictAll only reclaims
// memory.
//
// Config-fingerprint contract: both cache tiers key on
// EngineConfig::Fingerprint(), which covers every result-changing engine
// field — including the parser routing policy (parser_mode +
// parser_complexity_threshold) and the canonicalizer options — so moving
// the quality/latency dial can never serve results computed under a
// different policy. Document ids must be stable per content: a mutated
// document must get a new id.
//
// Thread-safety contract: all public methods may be called concurrently from
// any thread once the service is constructed; the engine and search index
// are shared read-only, the caches, store and metrics are internally
// synchronized. Lock order (qkbfly-lint C2): memo shard -> store shard ->
// metrics. Both tiers share the memo shard lock, which is never held while
// a compute function runs, so the tiers never nest.
#ifndef QKBFLY_SERVICE_KB_SERVICE_H_
#define QKBFLY_SERVICE_KB_SERVICE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "canon/onthefly_kb.h"
#include "core/qkbfly.h"
#include "memo/sharded_lru.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "retrieval/search_engine.h"
#include "store/fact_store.h"
#include "store/query_cache.h"
#include "util/cache_stats.h"
#include "util/latency_histogram.h"

namespace qkbfly {

class ThreadPool;

namespace memo {
template <>
struct Traits<DocumentFacts> {
  static constexpr size_t kDefaultByteBudget = size_t{64} << 20;
  static Instruments Bind();
};
}  // namespace memo

/// The doc tier: each document's canonical facts, keyed by
/// memo::JoinKey({document id, config fingerprint}).
using DocumentResultCache = memo::ShardedLru<DocumentFacts>;

/// Serving configuration.
struct KbServiceOptions {
  /// Byte budget and sharding of the doc tier (cached DocumentFacts).
  DocumentResultCache::Options cache;

  /// Worker threads for fanning cache misses of one query across documents.
  /// <= 1 computes misses on the calling thread. Independent of concurrent
  /// Answer() calls, which always run on their callers' threads.
  int num_threads = 1;

  /// Retrieval depths (the demo fetches the entity's article plus news).
  size_t wiki_k = 2;
  size_t news_k = 10;

  /// Facts rendered into QueryResult::answers.
  size_t max_answers = 5;

  /// When > 0, every Answer() call captures a structured span trace and the
  /// slowest N are retained (see traces()). 0 — the default — disables span
  /// capture entirely: no Trace is allocated and every instrumentation
  /// point is a single null check.
  size_t keep_slowest_traces = 0;

  /// Byte budget and sharding of the query-level cache tier.
  QueryKbCache::Options query_cache;

  /// When true, a query-tier miss first probes the fact store's QA-pair
  /// index (exact normalized question, same epoch + fingerprint) before
  /// running the full pipeline — this is what serves repeated questions
  /// across process restarts after FactStore::Load.
  bool serve_from_store = false;

  /// With serve_from_store, also accept token-bag paraphrase matches
  /// ("who married ann" serves "ann married who").
  bool match_paraphrases = false;

  /// Optional externally-owned fact store (shared across services, or
  /// preloaded from a snapshot). Must outlive the service. When null the
  /// service owns a private store.
  FactStore* fact_store = nullptr;
};

/// Per-query serving statistics.
struct ServiceStats {
  size_t documents = 0;        ///< Documents retrieved for the query.
  CacheStats cache;            ///< This query's doc-tier hits/misses.
  CacheStats query_cache;      ///< This query's query-tier hit/miss (0/1).
  bool query_cache_hit = false;    ///< Served from the query tier.
  bool served_from_store = false;  ///< Served from persisted QA pairs.
  double retrieve_s = 0.0;     ///< Search-engine time (0 on query-tier hit).
  double process_s = 0.0;      ///< Fetch-or-compute time (all documents),
                               ///< including Extract on misses.
  double canonicalize_s = 0.0; ///< Per-query Merge (KB assembly) time.
  double total_s = 0.0;        ///< End-to-end latency.

  double CacheHitRate() const { return cache.HitRate(); }
};

/// Cache-backed query serving over an engine + search index. Both must
/// outlive the service.
class KbService {
 public:
  KbService(const QkbflyEngine* engine, const SearchEngine* search,
            KbServiceOptions options = {});
  ~KbService();

  KbService(const KbService&) = delete;
  KbService& operator=(const KbService&) = delete;

  struct QueryResult {
    OnTheFlyKb kb;
    std::vector<std::string> answers;  ///< Top facts, rendered, by confidence.
    ServiceStats stats;
  };

  /// Full query path. Checked in order: the query-level cache (normalized
  /// question + epoch + fingerprint; single-flight on miss), then — with
  /// serve_from_store — the fact store's QA pairs, then the cold pipeline
  /// (retrieve, build the KB through the doc tier, rank facts into
  /// `answers`, ingest the facts into the store). Warm answers deserialize
  /// the cached KB bytes, so result.kb is byte-identical to the cold build.
  QueryResult Answer(const std::string& query);

  /// Document-level entry point (QaSystem routes here with its own
  /// retrieval): cache-backed equivalent of QkbflyEngine::BuildKb. The KB is
  /// byte-identical to the uncached build for every document order —
  /// cached facts carry document-local emerging ids and Merge runs in input
  /// order either way. An enabled `trace` gets per-document
  /// `fetch_or_compute` spans (with cache-hit attributes; on a miss with
  /// `process_document` and `extract` children) and a `merge` span.
  OnTheFlyKb BuildKb(const std::vector<const Document*>& docs,
                     ServiceStats* stats = nullptr,
                     obs::TraceContext trace = {});

  /// Service-wide metrics snapshot: a view over the default metrics registry
  /// (`service_queries_total`, `service_answer_seconds`, `doc_cache_*`),
  /// baselined at construction so the numbers cover this instance only.
  struct Metrics {
    uint64_t queries = 0;
    CacheStats cache;           ///< Cumulative DocumentResultCache counters.
    CacheStats query_cache;     ///< Cumulative QueryKbCache counters.
    LatencyHistogram latency;   ///< End-to-end Answer() latencies.
  };
  Metrics metrics() const;

  /// The slowest-N retained query traces (empty unless
  /// options().keep_slowest_traces > 0).
  const obs::TraceSink& traces() const { return trace_sink_; }

  const DocumentResultCache& cache() const { return cache_; }
  const QueryKbCache& query_cache() const { return query_cache_; }
  const QkbflyEngine& engine() const { return *engine_; }
  const KbServiceOptions& options() const { return options_; }

  /// The fact store answers are ingested into (the service-owned one unless
  /// options.fact_store was set). Mutable so callers can Save/Load it.
  FactStore* fact_store() { return store_; }
  const FactStore* fact_store() const { return store_; }

  /// Drops the query tier's entries (the doc tier and store are untouched).
  /// Benches use this to measure the doc-warm path in isolation.
  void ClearQueryTier() { query_cache_.Clear(); }

 private:
  std::shared_ptr<const DocumentFacts> FetchOrCompute(const Document& doc,
                                                      CacheStats* tally,
                                                      obs::TraceContext trace);

  /// The cold pipeline: retrieval + BuildKb + fact ranking. Fills
  /// out->kb, out->answers, and the retrieval/process/canonicalize stats.
  void AnswerCold(const std::string& query, QueryResult* out,
                  obs::TraceContext trace);

  /// The corpus epoch to serve at: the live SearchEngine::epoch() when a
  /// search engine is attached, else the engine config's corpus_epoch.
  CorpusEpoch CurrentEpoch() const;

  /// Propagates an epoch bump to every tier (query tier, doc tier, store),
  /// in documented lock order. Idempotent per epoch.
  void SyncEpoch(CorpusEpoch epoch);

  const QkbflyEngine* engine_;
  const SearchEngine* search_;
  KbServiceOptions options_;
  std::string fingerprint_;  ///< Engine-config fingerprint, part of cache keys.
  DocumentResultCache cache_;
  QueryKbCache query_cache_;
  std::unique_ptr<FactStore> owned_store_;  ///< When options.fact_store null.
  FactStore* store_;
  std::unique_ptr<ThreadPool> pool_;  ///< Present when num_threads > 1.
  obs::TraceSink trace_sink_;

  // Registry instruments plus the construction-time baseline for metrics().
  obs::Counter* queries_total_;
  obs::Histogram* answer_seconds_;
  obs::Histogram* retrieve_seconds_;
  uint64_t queries_baseline_ = 0;
  LatencyHistogram latency_baseline_;
};

}  // namespace qkbfly

#endif  // QKBFLY_SERVICE_KB_SERVICE_H_
