// Background statistics (S) mined from the background corpus (C), as in
// Figure 1 of the paper: mention-entity link priors, TF-IDF entity context
// vectors, an IDF table, and clause-level type-signature co-occurrence
// statistics for relation patterns.
#ifndef QKBFLY_CORPUS_BACKGROUND_STATS_H_
#define QKBFLY_CORPUS_BACKGROUND_STATS_H_

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "clausie/clausie.h"
#include "corpus/document.h"
#include "kb/entity_repository.h"
#include "kb/type_system.h"
#include "nlp/pipeline.h"
#include "util/interner.h"
#include "util/sparse_vector.h"
#include "util/string_util.h"

namespace qkbfly {

/// Read-side API consumed by the graph algorithm's feature functions
/// (Section 4 of the paper).
class BackgroundStats {
 public:
  /// prior(n_i, e_ij): the relative frequency with which an anchor with the
  /// given surface links to `entity`. 0 when the mention is unseen.
  double Prior(std::string_view mention, EntityId entity) const;

  /// Prior for an already-lowercased mention: the allocation-free variant the
  /// densifier's weight lanes use (the caller folds case once per node).
  double PriorLowered(std::string_view lowered_mention, EntityId entity) const;

  /// TF-IDF context vector of an entity, built from its own article and the
  /// sentences that link to it. Empty for unseen entities.
  const SparseVector& EntityContext(EntityId entity) const;

  /// Builds the TF-IDF context vector of a mention from the tokens of the
  /// sentence containing it.
  SparseVector MentionContext(const std::vector<Token>& sentence_tokens) const;

  /// MentionContext into caller-owned storage: `out` is Clear()ed and
  /// refilled, `scratch` holds the per-token lowercase buffer. Both reuse
  /// their capacity, so a warm caller performs no heap traffic. Produces the
  /// bit-identical vector MentionContext returns.
  void MentionContextInto(const std::vector<Token>& sentence_tokens,
                          std::string* scratch, SparseVector* out) const;

  /// coh(e1, e2): weighted-overlap similarity of the entities' contexts.
  double Coherence(EntityId e1, EntityId e2) const;

  /// ts(t1, pattern, t2): relative frequency of the (t1, t2) type pair among
  /// all typed argument pairs observed under `pattern` in background clauses.
  double TypeSignature(TypeId t1, std::string_view pattern, TypeId t2) const;

  /// Sum of TypeSignature over all type-combination pairs of two typed
  /// arguments (the paper sums over all type combinations of an entity pair).
  double TypeSignatureSum(const std::vector<TypeId>& subject_types,
                          std::string_view pattern,
                          const std::vector<TypeId>& object_types) const;

  /// One relation pattern's type-pair table, resolved once so a caller
  /// evaluating many pairs under the same pattern skips the per-call string
  /// lookups. `counts` is null for unseen patterns.
  struct TypeSignatureTable {
    const std::unordered_map<uint64_t, uint32_t>* counts = nullptr;
    double denom = 0.0;
  };
  TypeSignatureTable FindTypeSignatureTable(std::string_view pattern) const;

  /// TypeSignatureSum against a pre-resolved table, over type-id spans.
  /// Identical nested-loop order (and therefore bit-identical sums) as the
  /// vector overload.
  double TypeSignatureSum(const TypeSignatureTable& table,
                          std::span<const TypeId> subject_types,
                          std::span<const TypeId> object_types) const;

  size_t document_count() const { return document_count_; }
  size_t pattern_count() const { return type_sig_totals_.size(); }

 private:
  friend class StatisticsBuilder;

  static uint64_t TypePairKey(TypeId a, TypeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  // String-keyed tables use heterogeneous hashing so the densifier's
  // per-document hot path can probe with string_views of reused buffers.
  template <typename V>
  using StringMap =
      std::unordered_map<std::string, V, TransparentStringHash, std::equal_to<>>;

  // mention(lowercased) -> entity -> anchor count; plus per-mention totals.
  StringMap<std::unordered_map<EntityId, uint32_t>> anchor_counts_;
  StringMap<uint32_t> mention_totals_;

  // Indexed by EntityId; entities without context evidence hold an empty
  // vector.
  std::vector<SparseVector> entity_contexts_;

  StringInterner terms_;
  std::vector<uint32_t> doc_freq_;  // indexed by term id
  size_t document_count_ = 0;

  // pattern -> (type pair -> count), plus per-pattern totals.
  StringMap<std::unordered_map<uint64_t, uint32_t>> type_sig_counts_;
  StringMap<uint32_t> type_sig_totals_;
};

/// Builds BackgroundStats by running the full annotation + clause pipeline
/// over a background corpus whose documents carry anchors.
class StatisticsBuilder {
 public:
  StatisticsBuilder(const EntityRepository* repository, const TypeSystem* types)
      : repository_(repository), types_(types) {}

  /// Processes every document. The pipeline should use the repository as its
  /// gazetteer so NER types line up with the repository's coarse types.
  BackgroundStats Build(const DocumentStore& corpus,
                        const NlpPipeline& pipeline) const;

 private:
  const EntityRepository* repository_;
  const TypeSystem* types_;
};

}  // namespace qkbfly

#endif  // QKBFLY_CORPUS_BACKGROUND_STATS_H_
