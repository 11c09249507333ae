// The question->answer-pair index ("QA Is the New KR"): materializes every
// answered question as a first-class queryable artifact alongside the triple
// store. A QaPair carries the rendered answers plus the KB the answer was
// derived from, so a repeated question (matched by its exact normalized
// text) can be served straight from accumulated knowledge. A pair answered in this
// process shares the immutable KB object with the query tier; a pair read
// from a snapshot holds its serialized bytes until its first hit
// deserializes them — byte-identical to the cold build either way.
#ifndef QKBFLY_STORE_QA_PAIR_INDEX_H_
#define QKBFLY_STORE_QA_PAIR_INDEX_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "canon/onthefly_kb.h"
#include "corpus/document.h"

namespace qkbfly {

/// One answered question. `question` is the normalized form (see
/// QaPairIndex::NormalizeQuestion); `fingerprint` is the producing engine's
/// config fingerprint, so pairs from differently-configured engines never
/// serve each other. A pair recorded in this process sets `kb`; a pair read
/// by FactStore::Load sets `kb_bytes` instead.
struct QaPair {
  std::string question;
  std::string fingerprint;
  CorpusEpoch epoch = 0;
  size_t documents = 0;              ///< Documents retrieved for the answer.
  std::vector<std::string> answers;  ///< Rendered top facts, ranked.
  std::shared_ptr<const OnTheFlyKb> kb;  ///< Shared with the query tier.
  std::string kb_bytes;  ///< OnTheFlyKb::Serialize output of a loaded pair.

  size_t ApproxBytes() const;
};

/// Thread-safe map of normalized questions to QaPairs. Lookups are epoch-exact: a pair recorded
/// under an older corpus epoch is stale and never returned. The FactStore
/// owns one and persists it in the same snapshot as the facts.
class QaPairIndex {
 public:
  /// Lowercases, strips punctuation, and collapses whitespace — the exact
  /// key of the index and of the serving layer's query-level cache.
  static std::string NormalizeQuestion(std::string_view question);

  /// Inserts or replaces the pair for (question, fingerprint). A pair with
  /// an older epoch never replaces a fresher one.
  void Record(QaPair pair);

  /// Exact lookup: the pair for (question, fingerprint) if it was recorded
  /// at exactly `epoch`, else null.
  std::shared_ptr<const QaPair> Find(std::string_view question,
                                     CorpusEpoch epoch,
                                     std::string_view fingerprint) const;

  /// Drops pairs recorded under an epoch older than `epoch`.
  void DropStale(CorpusEpoch epoch);

  /// All pairs, sorted by (question, fingerprint) — the deterministic
  /// persistence order.
  std::vector<std::shared_ptr<const QaPair>> All() const;

  size_t size() const;
  size_t ApproxBytesUsed() const;
  void Clear();

 private:
  static std::string MapKey(std::string_view question,
                            std::string_view fingerprint);

  mutable std::mutex mutex_;  ///< Leaf lock: nothing is acquired under it.
  std::map<std::string, std::shared_ptr<const QaPair>, std::less<>> by_key_;
};

}  // namespace qkbfly

#endif  // QKBFLY_STORE_QA_PAIR_INDEX_H_
