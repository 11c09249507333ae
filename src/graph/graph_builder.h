// Stage 1 of QKBfly: building the semantic graph of a document from its
// clause structure, with initial co-reference (sameAs) edges and candidate
// entity (means) edges.
#ifndef QKBFLY_GRAPH_GRAPH_BUILDER_H_
#define QKBFLY_GRAPH_GRAPH_BUILDER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "clausie/clause_detector.h"
#include "graph/semantic_graph.h"
#include "kb/entity_repository.h"
#include "nlp/annotation.h"
#include "parser/dependency.h"

namespace qkbfly {

/// Builds one SemanticGraph per document.
class GraphBuilder {
 public:
  struct Options {
    /// How many sentences back a pronoun may look for its antecedent
    /// (the paper uses five).
    int pronoun_window = 5;

    /// When false (the QKBfly-noun variant of Table 3), no pronoun sameAs
    /// edges are created, so co-reference resolution is skipped entirely.
    bool pronoun_coreference = true;

    /// Cap on the loose candidates proposed per noun phrase: besides exact
    /// alias matches, entities sharing a name token with the mention
    /// (Babelfy-style). The densifier prunes them; they mostly grow the
    /// search space — which is what makes the ILP translation expensive.
    int max_candidates = 12;
  };

  GraphBuilder(const EntityRepository* repository,
               std::unique_ptr<DependencyParser> parser, Options options);
  GraphBuilder(const EntityRepository* repository,
               std::unique_ptr<DependencyParser> parser)
      : GraphBuilder(repository, std::move(parser), Options()) {}

  /// Builds the semantic graph of an annotated document.
  SemanticGraph Build(const AnnotatedDocument& doc) const;

  /// The configured dependency-parser backend (trace attributes, tests).
  const DependencyParser& parser() const { return *parser_; }

 private:
  struct BuildState;

  const EntityRepository* repository_;
  std::unique_ptr<DependencyParser> parser_;
  ClauseDetector detector_;
  Options options_;
};

}  // namespace qkbfly

#endif  // QKBFLY_GRAPH_GRAPH_BUILDER_H_
