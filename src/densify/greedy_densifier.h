// Algorithm 1 of the paper: greedy approximation of the constrained
// densest-subgraph problem, jointly performing named-entity disambiguation
// (pruning means edges) and co-reference resolution (pruning pronoun sameAs
// edges), with incremental weight recomputation and confidence scoring.
#ifndef QKBFLY_DENSIFY_GREEDY_DENSIFIER_H_
#define QKBFLY_DENSIFY_GREEDY_DENSIFIER_H_

#include "densify/evaluator.h"
#include "obs/trace.h"

namespace qkbfly {

/// Greedy densest-subgraph solver. Mutates the graph by deactivating pruned
/// means / sameAs edges; constraints (1)-(4) of Section 4 hold on exit.
class GreedyDensifier {
 public:
  GreedyDensifier(const BackgroundStats* stats, const EntityRepository* repository,
                  DensifyParams params)
      : stats_(stats), repository_(repository), params_(params) {}

  /// With an enabled `trace`, records three child spans under its parent:
  /// densify_lanes (universes and weight lanes), densify_loop (constraints
  /// and the removal loop) and densify_confidences (objective, confidences
  /// and antecedents). Off by default, which costs one null check per span.
  DensifyResult Densify(SemanticGraph* graph, const AnnotatedDocument& doc,
                        obs::TraceContext trace = {}) const;

  /// Reuse form: clears and refills `*result`, so a caller looping over
  /// documents with one DensifyResult (and the retained thread-local
  /// workspace) densifies with zero steady-state heap allocations.
  void Densify(SemanticGraph* graph, const AnnotatedDocument& doc,
               DensifyResult* result, obs::TraceContext trace = {}) const;

  const DensifyParams& params() const { return params_; }

 private:
  void RunHeapLoop(DensifyEvaluator* eval, SemanticGraph* graph,
                   DensifyResult* result) const;

  const BackgroundStats* stats_;
  const EntityRepository* repository_;
  DensifyParams params_;
};

}  // namespace qkbfly

#endif  // QKBFLY_DENSIFY_GREEDY_DENSIFIER_H_
