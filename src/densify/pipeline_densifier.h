// The QKBfly-pipeline baseline of the experiments: instead of joint
// inference, NED picks the best entity per mention independently (prior +
// context similarity only — no type signatures, no coherence), and
// co-reference picks the nearest compatible antecedent. Used for Tables 3/4.
#ifndef QKBFLY_DENSIFY_PIPELINE_DENSIFIER_H_
#define QKBFLY_DENSIFY_PIPELINE_DENSIFIER_H_

#include "densify/evaluator.h"

namespace qkbfly {

/// Stage-separated NED + CR baseline producing the same DensifyResult shape
/// as the joint algorithm so downstream canonicalization is identical.
class PipelineDensifier {
 public:
  PipelineDensifier(const BackgroundStats* stats,
                    const EntityRepository* repository, DensifyParams params)
      : stats_(stats), repository_(repository), params_(params) {}

  DensifyResult Densify(SemanticGraph* graph, const AnnotatedDocument& doc) const;

 private:
  const BackgroundStats* stats_;
  const EntityRepository* repository_;
  DensifyParams params_;
};

}  // namespace qkbfly

#endif  // QKBFLY_DENSIFY_PIPELINE_DENSIFIER_H_
