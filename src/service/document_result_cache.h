// Cross-query reuse of per-document extraction results. annotate -> graph ->
// densify -> Canonicalizer::Extract is query-independent (only
// Canonicalizer::Merge binds a document's facts into a per-query KB), so
// each document's DocumentFacts, keyed by (document id, engine-config
// fingerprint), can be shared by every query that retrieves it — the
// paper's demo keeps already-processed sentences around for exactly this
// reason.
//
// The tier caches the canonical facts, not the DocumentResult they came
// from: Merge reads nothing else, and a DocumentResult (graph arena, nodes,
// edges, tokens) is ~45x larger — ~91 KB against ~2 KB per cached document
// on the perfbench serving corpus (DESIGN.md, "Serving layer").
#ifndef QKBFLY_SERVICE_DOCUMENT_RESULT_CACHE_H_
#define QKBFLY_SERVICE_DOCUMENT_RESULT_CACHE_H_

#include <atomic>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "canon/canonicalizer.h"
#include "corpus/document.h"
#include "obs/metrics.h"
#include "util/cache_stats.h"

namespace qkbfly {

/// A sharded, thread-safe, byte-budgeted LRU cache of DocumentFacts with
/// single-flight computation: when N threads ask for the same missing key
/// concurrently, exactly one runs the compute function and the others block
/// on its result. Entries are immutable once inserted (shared_ptr<const>),
/// so lookups share them; a reader copies only what it merges into its KB.
///
/// Eviction is LRU per shard under a per-shard slice of the byte budget (an
/// entry is charged its key, its bookkeeping and DocumentFacts::ApproxBytes).
/// In-flight entries are never evicted. Invalidation rule: the config
/// fingerprint in the key must capture everything that changes the
/// computation (see EngineConfig::Fingerprint — it covers the canonicalizer
/// options, so post-threshold facts are keyed soundly), and document ids
/// must be stable per content — a mutated document must get a new id.
class DocumentResultCache {
 public:
  struct Options {
    size_t byte_budget = size_t{64} << 20;  ///< Total across all shards.
    int num_shards = 8;
  };

  explicit DocumentResultCache(Options options);
  DocumentResultCache() : DocumentResultCache(Options()) {}

  /// Clears on destruction so the resident-bytes/entries gauges drop this
  /// instance's contribution.
  ~DocumentResultCache() { Clear(); }

  using ComputeFn = std::function<DocumentFacts()>;

  /// Returns the cached result for (doc_id, fingerprint), computing and
  /// inserting it on miss. `was_hit` (optional) reports whether this call
  /// avoided running `compute` — true both for ready entries and for joining
  /// another thread's in-flight computation. If `compute` throws, every
  /// waiter rethrows and the entry is dropped.
  std::shared_ptr<const DocumentFacts> FetchOrCompute(
      std::string_view doc_id, std::string_view fingerprint,
      const ComputeFn& compute, bool* was_hit = nullptr);

  /// Hit/miss/eviction counters. The live counters are the registry's
  /// `doc_cache_*_total`; this view subtracts the construction-time baseline
  /// so each cache instance reports only its own traffic.
  CacheStats stats() const;

  /// Total charged bytes of ready entries.
  size_t ApproxBytesUsed() const;

  /// Ready entries currently resident.
  size_t entry_count() const;

  size_t byte_budget() const { return options_.byte_budget; }

  /// Drops all ready entries. In-flight computations are untouched: they
  /// complete, fulfil their waiters and insert as usual.
  void Clear();

  /// Epoch-aware invalidation: Clear() when `epoch` advances past the last
  /// epoch seen (idempotent per epoch). Unlike the query tier's keys, doc
  /// cache keys carry no epoch — (doc id, fingerprint) entries from an old
  /// corpus would otherwise be served forever — so this call is the
  /// correctness-critical half of a corpus-epoch bump.
  void EvictAll(CorpusEpoch epoch);

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const DocumentFacts>> future;
    bool ready = false;
    size_t bytes = 0;
    std::list<std::string>::iterator lru;  ///< Valid only when ready.
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> map;
    std::list<std::string> lru;  ///< Ready keys, most recently used first.
    size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key);
  void EvictOverBudgetLocked(Shard& shard);
  CacheStats TotalsNow() const;

  /// Recomputes ready-entry bytes/counts and compares them with the shard's
  /// running counters (util/invariants.h). Requires shard.mutex held. Always
  /// compiled; called from the hot path only under QKBFLY_CHECK_INVARIANTS.
  static std::string CheckShardAccountingLocked(const Shard& shard);

  Options options_;
  size_t budget_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<CorpusEpoch> epoch_{0};  ///< Last epoch EvictAll acted on.

  // Registry instruments (process-wide); counters are read lock-free, so the
  // monotonicity invariant can run while a shard mutex is held. The gauges
  // track resident bytes/entries across every cache instance.
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Gauge* resident_bytes_;
  obs::Gauge* resident_entries_;
  CacheStats baseline_;
};

}  // namespace qkbfly

#endif  // QKBFLY_SERVICE_DOCUMENT_RESULT_CACHE_H_
