// The persistent sharded fact store: canonicalized facts accumulated across
// queries, with provenance (source documents, originating queries, corpus
// epoch) and epoch-based lazy invalidation. This is the subsystem that turns
// on-the-fly construction into a *growing* KB — repeated and overlapping
// queries amortize instead of rebuilding from scratch — plus the QaPairIndex
// materializing question->answer pairs alongside the triple store.
//
// Concurrency mirrors memo::ShardedLru (memo/sharded_lru.h): mutex-per-shard,
// keys hashed to shards, counters/gauges in the process-wide metrics
// registry (`store_facts_total`, `store_resident_bytes`). Lock order
// (documented in DESIGN.md, enforced by qkbfly-lint C2): store shard mutexes
// rank below the memo shard mutex of the serving layer's cache tiers and
// above metrics.
//
// Persistence is a JSONL snapshot (`Save`/`Load`): one schema-validated JSON
// object per line — a header, then facts, then QA pairs, each section in
// deterministic sorted order so identical stores serialize identically.
#ifndef QKBFLY_STORE_FACT_STORE_H_
#define QKBFLY_STORE_FACT_STORE_H_

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
#include "store/qa_pair_index.h"
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
  struct Options {
    int num_shards = 8;
  };

  explicit FactStore(Options options);
  FactStore() : FactStore(Options()) {}

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

  /// All fresh (current-epoch) facts about `subject`, sorted by Key() —
  /// the cheap pre-filter over accumulated facts ("Beyond NED") that runs
  /// before any full construction. Emits a `store_lookup` span.
  std::vector<FactRecord> LookupSubject(std::string_view subject,
                                        obs::TraceContext trace = {}) const;

  /// Every fresh fact, sorted by Key(). Deterministic; used by Save and the
  /// benches.
  std::vector<FactRecord> Snapshot() const;

  /// Advances the store's corpus epoch. Facts (and QA pairs) recorded under
  /// an older epoch become stale: they stop being returned immediately and
  /// are physically dropped lazily, the next time their shard is written.
  void SetEpoch(CorpusEpoch epoch);
  CorpusEpoch epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Fresh facts currently resident (stale records are not counted).
  size_t fact_count() const;

  /// Approximate bytes of resident facts plus QA pairs.
  size_t ApproxBytesUsed() const;

  void Clear();

  /// Writes the JSONL snapshot: header line, facts sorted by key, QA pairs
  /// sorted by (question, fingerprint). Atomic via write-to-temp + rename.
  Status Save(const std::string& path) const;

  /// Replaces the store's contents from a snapshot. Every line is parsed
  /// by util/json and schema-validated (exact key set, value types, epochs
  /// and document counts as exact uint64_t integers, finite confidences);
  /// the first violation fails the load with a line-numbered
  /// InvalidArgument and leaves the store empty.
  Status Load(const std::string& path);

  /// The question->answer-pair index persisted alongside the facts.
  QaPairIndex& qa_pairs() { return qa_pairs_; }
  const QaPairIndex& qa_pairs() const { return qa_pairs_; }

  /// QaPairIndex lookups wrapped in a `store_lookup` span. The paraphrase
  /// variant falls back to a token-bag match when the exact question misses.
  std::shared_ptr<const QaPair> FindQaPair(std::string_view question,
                                           CorpusEpoch epoch,
                                           std::string_view fingerprint,
                                           bool match_paraphrases,
                                           obs::TraceContext trace = {}) const;

 private:
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

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<CorpusEpoch> epoch_{1};
  QaPairIndex qa_pairs_;

  // Registry instruments (process-wide, shared across instances).
  obs::Counter* facts_total_;
  obs::Gauge* resident_bytes_;
};

}  // namespace qkbfly

#endif  // QKBFLY_STORE_FACT_STORE_H_
