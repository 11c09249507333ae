// The persistent sharded fact store: canonicalized facts accumulated across
// queries, with provenance (source documents, originating queries, corpus
// epoch) and epoch-based lazy invalidation. This is the subsystem that turns
// on-the-fly construction into a *growing* KB — repeated and overlapping
// queries amortize instead of rebuilding from scratch — plus the serving
// layer's query tier (store/query_cache.h): the question->answer pairs,
// one memo::ShardedLru under one byte budget, persisted alongside the
// triple store.
//
// Concurrency mirrors memo::ShardedLru (memo/sharded_lru.h): mutex-per-shard,
// keys hashed to shards, counters/gauges in the process-wide metrics
// registry (`store_facts_total`, `store_resident_bytes`). Lock order
// (documented in DESIGN.md, enforced by qkbfly-lint C3): store shard mutexes
// rank below the memo shard mutex of the serving layer's cache tiers and
// above metrics, so no store method touches its query tier while it holds
// a store shard mutex.
//
// Persistence is a JSONL snapshot (`Save`/`Load`): one schema-validated JSON
// object per line — a header, then facts, then QA pairs, each section in
// deterministic sorted order so identical stores serialize identically. A
// snapshot holds the facts and the QA pairs resident in the query tier: a
// pair the byte budget evicted before Save is not in it.
#ifndef QKBFLY_STORE_FACT_STORE_H_
#define QKBFLY_STORE_FACT_STORE_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "canon/onthefly_kb.h"
#include "corpus/document.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/query_cache.h"
#include "util/status.h"
#include "util/string_util.h"

namespace qkbfly {

/// One accumulated fact in portable rendered form (display strings, not
/// repository ids, so snapshots survive process restarts) with provenance.
struct FactRecord {
  std::string subject;
  std::string relation;
  std::vector<std::string> args;
  bool negated = false;
  double confidence = 0.0;
  CorpusEpoch epoch = 0;             ///< Epoch the fact was last confirmed at.
  std::vector<std::string> doc_ids;  ///< Source documents, sorted unique.
  std::vector<std::string> queries;  ///< Originating queries, sorted unique.

  /// Identity of the fact: subject, relation, negation and arguments.
  /// Records with equal keys merge (max confidence, provenance union).
  std::string Key() const;

  size_t ApproxBytes() const;
};

/// Sharded, versioned, thread-safe accumulator of canonicalized facts.
class FactStore {
 public:
  /// `qa_byte_budget` bounds the query tier (the resident QA pairs).
  explicit FactStore(
      size_t qa_byte_budget = memo::Traits<QaPair>::kDefaultByteBudget);

  /// Clears on destruction so the resident-bytes gauge drops this instance's
  /// contribution.
  ~FactStore() { Clear(); }

  FactStore(const FactStore&) = delete;
  FactStore& operator=(const FactStore&) = delete;

  /// Renders every fact of `kb` and merges it into the store, tagged with
  /// the originating query and epoch. Returns the number of facts that were
  /// new keys (merges into existing records are not counted). Emits a
  /// `store_ingest` span when tracing is enabled.
  size_t IngestKb(const OnTheFlyKb& kb, std::string_view query,
                  CorpusEpoch epoch, obs::TraceContext trace = {});

  /// Inserts or merges one record (the Load path and tests). Returns true
  /// if the key was new.
  bool Ingest(FactRecord record);

  /// Every fresh fact, sorted by Key(). Deterministic; used by Save and the
  /// benches.
  std::vector<FactRecord> Snapshot() const;

  /// Advances the store's corpus epoch. Facts recorded under an older epoch
  /// become stale: they stop being returned immediately and are physically
  /// dropped lazily, the next time their shard is written. The query tier is
  /// emptied at once (its keys carry the epoch, so this only reclaims
  /// memory). The epoch never moves backwards: an epoch at or below the
  /// current one is a no-op, also when calls race.
  void SetEpoch(CorpusEpoch epoch);
  CorpusEpoch epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Fresh facts currently resident (stale records are not counted).
  size_t fact_count() const;

  /// Approximate bytes of resident facts plus the query tier's charge.
  size_t ApproxBytesUsed() const;

  void Clear();

  /// Writes the JSONL snapshot: header line, facts sorted by key, then the
  /// query tier's resident pairs of the current epoch or later sorted by
  /// (question, fingerprint, epoch), a pair's KB serialized from its shared
  /// object when it has one. Streams record by record to a temp file and
  /// renames it over `path`, so the write is atomic.
  Status Save(const std::string& path) const;

  /// Replaces the store's contents from a snapshot, read line by line.
  /// Every line is parsed by util/json and schema-validated (exact key set, value types, epochs
  /// and document counts as exact uint64_t integers, finite confidences);
  /// the first violation fails the load with a line-numbered
  /// InvalidArgument and leaves the store empty. Each QA pair enters the
  /// query tier through Insert holding its KB bytes (deserialized by the
  /// serving layer on the pair's first hit); past the byte budget the most
  /// recently read pairs stay.
  Status Load(const std::string& path);

  /// The query tier: the QA pairs persisted alongside the facts, keyed by
  /// QueryKey(question, epoch, fingerprint).
  QueryKbCache& answers() { return answers_; }
  const QueryKbCache& answers() const { return answers_; }

 private:
  static constexpr size_t kNumShards = 8;

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, FactRecord, TransparentStringHash,
                       std::equal_to<>>
        map;
    size_t bytes = 0;  ///< Sum of ApproxBytes over resident records.
  };

  Shard& ShardFor(std::string_view key);
  const Shard& ShardFor(std::string_view key) const;

  /// Physically removes records older than `epoch`. Requires the shard
  /// mutex held; called from write paths so invalidation stays lazy.
  void DropStaleLocked(Shard& store_shard, CorpusEpoch epoch);

  std::array<Shard, kNumShards> shards_;
  std::atomic<CorpusEpoch> epoch_{1};
  QueryKbCache answers_;

  // Registry instruments (process-wide, shared across instances).
  obs::Counter* facts_total_;
  obs::Gauge* resident_bytes_;
};

}  // namespace qkbfly

#endif  // QKBFLY_STORE_FACT_STORE_H_
