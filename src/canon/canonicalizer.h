// Stage 3 of QKBfly (Section 5): turning the densified semantic graph into
// canonicalized facts — merging co-reference clusters, introducing emerging
// entities, mapping relation patterns onto synsets, assembling n-ary facts
// from the clause structure, and thresholding by confidence.
//
// The stage splits at its one KB-dependent seam. Extract reads the graph and
// produces a document's facts with emerging entities numbered locally;
// Merge binds them into a KB (emerging ids and KB-local relation ids are
// minted there). Extract's output depends only on the document and the
// options, so the serving layer caches it per document and runs only Merge
// per query.
#ifndef QKBFLY_CANON_CANONICALIZER_H_
#define QKBFLY_CANON_CANONICALIZER_H_

#include "canon/onthefly_kb.h"
#include "densify/greedy_densifier.h"
#include "graph/semantic_graph.h"
#include "nlp/annotation.h"

namespace qkbfly {

/// One document's canonicalized facts, not yet bound to a KB.
///
/// `clusters` holds the document's emerging-entity clusters in registration
/// order; each cluster's `id` is its index here. Emerging fact arguments
/// carry those document-local indices until Merge remaps them. Facts are
/// the ones that passed the confidence threshold, in emission order, with
/// `relation` unset (relation ids can be KB-local, so Merge assigns them).
struct DocumentFacts {
  std::vector<EmergingEntity> clusters;
  std::vector<Fact> facts;

  /// Estimated heap footprint in bytes (structs plus string contents); the
  /// serving layer's doc tier charges its entries by it.
  size_t ApproxBytes() const;
};

/// Canonicalizes densified document graphs into OnTheFlyKb facts.
class Canonicalizer {
 public:
  struct Options {
    /// The paper's score threshold tau for distilling high-quality facts
    /// (0.5 for KB construction, 0.9 for the precision-oriented IE task).
    double confidence_threshold = 0.5;

    /// Mentions whose best link scores below this are treated as emerging
    /// entities instead (the paper adds "groups ... with very low confidence
    /// scores" as new entities).
    double emerging_threshold = 0.05;

    /// QKBfly-triples mode: restrict the KB to binary SPO facts.
    bool triples_only = false;
  };

  Canonicalizer(const EntityRepository* repository,
                const PatternRepository* patterns, Options options)
      : repository_(repository), patterns_(patterns), options_(options) {}

  /// Converts one densified document graph into its facts: resolves
  /// co-reference clusters to repository entities or emerging clusters,
  /// assembles facts per clause and keeps those at or above the confidence
  /// threshold. Touches no KB.
  DocumentFacts Extract(const SemanticGraph& graph,
                        const DensifyResult& densified,
                        const AnnotatedDocument& doc) const;

  /// Adds one document's facts to `kb`: registers every cluster (including
  /// clusters none of whose facts passed the threshold) in order, then per
  /// fact remaps its emerging arguments to the KB's ids, resolves its
  /// relation and adds it. Pass an rvalue to move the strings into the KB.
  static void Merge(OnTheFlyKb* kb, DocumentFacts facts);

  const Options& options() const { return options_; }

 private:
  const EntityRepository* repository_;
  const PatternRepository* patterns_;
  Options options_;
};

}  // namespace qkbfly

#endif  // QKBFLY_CANON_CANONICALIZER_H_
