// The serving layer: fronts SearchEngine + QkbflyEngine for concurrent
// query traffic through two cache tiers plus a persistent fact store:
//
//   query tier (QueryKbCache)  — whole answered questions as QA pairs,
//     keyed by (normalized question, corpus epoch, config fingerprint) and
//     owned by the fact store; a hit skips everything, including retrieval.
//   doc tier (DocumentResultCache) — each document's canonical facts
//     (DocumentFacts, from Canonicalizer::Extract, ~2 KB each) keyed by
//     (document id, config fingerprint) and shared across queries; on a
//     query-tier miss only retrieval and Canonicalizer::Merge run per
//     request for documents already extracted. A miss runs
//     QkbflyEngine::ExtractDocument and drops its DocumentResult (~33 KB),
//     so the tier's byte budget holds ~17x more documents than whole results.
//   fact store (FactStore)     — canonicalized facts accumulated across
//     queries plus the query tier, optionally persisted (Save/Load): a
//     loaded store serves the repeated questions of its snapshot.
//
// Both cache tiers are memo::ShardedLru instances (memo/sharded_lru.h): one
// sharded, byte-budgeted, single-flight LRU over two value types.
//
// Corpus-epoch contract: every Answer() syncs the tiers to the current
// epoch (SearchEngine::epoch()); a bump lazily invalidates both tiers and
// stales the store's records. The doc
// tier's keys carry no epoch, so its EvictAll is the correctness-critical
// half of a bump; the query tier's keys do, so FactStore::SetEpoch emptying
// it only reclaims memory.
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
// synchronized. Lock order (qkbfly-lint C3): memo shard -> store shard ->
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
#include "util/thread_pool.h"

namespace qkbfly {

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

  /// When > 0, every Answer() call captures a structured span trace and the
  /// slowest N are retained (see traces()). 0 — the default — disables span
  /// capture entirely: no Trace is allocated and every instrumentation
  /// point is a single null check.
  size_t keep_slowest_traces = 0;

  /// Optional externally-owned fact store (shared across services, or
  /// preloaded from a snapshot). Must outlive the service. Its query tier is
  /// the service's, so after FactStore::Load the snapshot's questions are
  /// served across process restarts. When null the service owns a private
  /// store with the default query-tier budget.
  FactStore* fact_store = nullptr;
};

/// Per-query serving statistics.
struct ServiceStats {
  size_t documents = 0;        ///< Documents retrieved for the query.
  CacheStats cache;            ///< This query's doc-tier hits/misses.
  CacheStats query_cache;      ///< This query's query-tier hit/miss (0/1).
  bool query_cache_hit = false;    ///< Served from the query tier.
  bool served_from_store = false;  ///< Served from a loaded QA pair.
  double retrieve_s = 0.0;     ///< Search-engine time (0 on query-tier hit).
  double process_s = 0.0;      ///< Fetch-or-compute time (all documents),
                               ///< including Extract on misses.
  double canonicalize_s = 0.0; ///< Per-query Merge (KB assembly) time.
  double total_s = 0.0;        ///< End-to-end latency.

  double CacheHitRate() const { return cache.HitRate(); }
};

/// Cache-backed query serving over an engine + search index. Both must
/// outlive the service. A service built with a null search engine supports
/// BuildKb only: Answer retrieves documents and reads the corpus epoch from
/// the search engine.
class KbService {
 public:
  KbService(const QkbflyEngine* engine, const SearchEngine* search,
            KbServiceOptions options = {});
  ~KbService();

  KbService(const KbService&) = delete;
  KbService& operator=(const KbService&) = delete;

  /// Facts rendered into QueryResult::answers.
  static constexpr size_t kMaxAnswers = 5;

  /// One answered query: the query tier's QA pair, shared, not copied.
  /// `kb` and `answers` refer into `pair`, so every answer to the same
  /// cached query refers to the same objects, and a hit copies neither the
  /// KB nor the rendered answers.
  struct QueryResult {
    std::shared_ptr<const QaPair> pair;
    const OnTheFlyKb& kb;                     ///< *pair->kb.
    const std::vector<std::string>& answers;  ///< pair->answers: top facts,
                                              ///< rendered, by confidence.
    ServiceStats stats;
  };

  /// Full query path: the query tier (normalized question + epoch +
  /// fingerprint; single-flight on miss), else the cold pipeline (retrieve,
  /// build the KB through the doc tier, rank facts into `answers`, ingest
  /// the facts into the store), whose QA pair enters the tier. The cold
  /// build is published once as an immutable shared KB; a query-tier hit
  /// returns that object without copying or parsing it, so result.kb is the
  /// cold build itself. A pair read from a snapshot is deserialized on its
  /// first hit (`served_from_store`, not `query_cache_hit`) and the
  /// completed pair replaces it in the tier. A loaded pair whose KB bytes do
  /// not deserialize (a corrupt snapshot) is answered cold instead, its
  /// cold pair replaces it, and `store_qa_rejected_total` counts the
  /// rejection.
  QueryResult Answer(const std::string& query);

  /// Document-level entry point, also used by Answer on a cold query:
  /// cache-backed equivalent of QkbflyEngine::BuildKb. The KB is
  /// byte-identical to the uncached build for every document order —
  /// cached facts carry document-local emerging ids and Merge runs in input
  /// order either way. An enabled `trace` gets per-document
  /// `fetch_or_compute` spans (with cache-hit attributes; on a miss with
  /// `process_document` and `extract` children) and a `merge` span.
  OnTheFlyKb BuildKb(const std::vector<const Document*>& docs,
                     ServiceStats* stats = nullptr,
                     obs::TraceContext trace = {});

  /// The slowest-N retained query traces (empty unless
  /// options().keep_slowest_traces > 0).
  const obs::TraceSink& traces() const { return trace_sink_; }

  const DocumentResultCache& cache() const { return cache_; }
  const QueryKbCache& query_cache() const { return store_->answers(); }
  const QkbflyEngine& engine() const { return *engine_; }
  const KbServiceOptions& options() const { return options_; }

  /// The fact store answers are ingested into (the service-owned one unless
  /// options.fact_store was set). Mutable so callers can Save/Load it.
  FactStore* fact_store() { return store_; }
  const FactStore* fact_store() const { return store_; }

  /// Drops the query tier's QA pairs (the doc tier and the store's facts
  /// are untouched). Tests use this to reach the doc-warm path in isolation.
  void ClearQueryTier() { store_->answers().Clear(); }

 private:
  struct Fetched {  ///< One doc-tier lookup: the facts, and if it hit.
    std::shared_ptr<const DocumentFacts> facts;
    bool hit = false;
  };
  /// A doc-tier miss runs QkbflyEngine::ExtractDocument.
  Fetched FetchOrCompute(const Document& doc, obs::TraceContext trace);

  /// The cold pipeline: retrieval + BuildKb + fact ranking + store ingest.
  /// Returns the QA pair for `normalized` at `epoch` (its KB shrunk, ready
  /// to share) and fills the retrieval/process/canonicalize fields of
  /// `stats`.
  QaPair AnswerCold(const std::string& query, std::string normalized,
                    CorpusEpoch epoch, ServiceStats* stats,
                    obs::TraceContext trace);

  /// The corpus epoch to serve at: the live SearchEngine::epoch().
  CorpusEpoch CurrentEpoch() const;

  /// Propagates an epoch bump to the doc tier and the store (which empties
  /// its query tier). Idempotent per epoch.
  void SyncEpoch(CorpusEpoch epoch);

  const QkbflyEngine* engine_;
  const SearchEngine* search_;
  KbServiceOptions options_;
  std::string fingerprint_;  ///< Engine-config fingerprint, part of cache keys.
  DocumentResultCache cache_;
  std::unique_ptr<FactStore> owned_store_;  ///< When options.fact_store null.
  FactStore* store_;
  std::unique_ptr<ThreadPool> pool_;  ///< Present when num_threads > 1.
  obs::TraceSink trace_sink_;

  // Registry instruments, fetched once at construction (stable pointers).
  obs::Counter* queries_total_;
  obs::Counter* store_qa_rejected_total_;
  obs::Histogram* answer_seconds_;
  obs::Histogram* retrieve_seconds_;
};

}  // namespace qkbfly

#endif  // QKBFLY_SERVICE_KB_SERVICE_H_
