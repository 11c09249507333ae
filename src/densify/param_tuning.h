// Hyper-parameter tuning (Section 4): learn alpha_1..alpha_4 by maximizing
// the likelihood of annotated ground-truth facts with L-BFGS. For each
// annotated fact (two mentions with their gold entities and a relation
// pattern), the probability of the gold candidate pair is
// prob = W(S_gold) / W(G), where S_gold keeps only the gold entity nodes.
#ifndef QKBFLY_DENSIFY_PARAM_TUNING_H_
#define QKBFLY_DENSIFY_PARAM_TUNING_H_

#include <string>
#include <vector>

#include "corpus/background_stats.h"
#include "densify/evaluator.h"
#include "kb/entity_repository.h"

namespace qkbfly {

/// One annotated tuning fact: two mention surfaces with their gold entities
/// and the relation pattern between them, plus the sentence for context.
struct AnnotatedFact {
  std::string sentence;
  std::string mention1;
  EntityId gold1 = kInvalidEntity;
  std::string mention2;
  EntityId gold2 = kInvalidEntity;
  std::string pattern;  ///< e.g. "born in"
};

/// Learns the four alphas from annotated facts.
class ParameterTuner {
 public:
  ParameterTuner(const EntityRepository* repository, const BackgroundStats* stats)
      : repository_(repository), stats_(stats) {}

  /// Runs L-BFGS on the negative log-likelihood; returns tuned parameters.
  /// Alphas are optimized in log-space so they stay positive.
  StatusOr<DensifyParams> Tune(const std::vector<AnnotatedFact>& facts,
                               DensifyParams initial = DensifyParams()) const;

 private:
  const EntityRepository* repository_;
  const BackgroundStats* stats_;
};

}  // namespace qkbfly

#endif  // QKBFLY_DENSIFY_PARAM_TUNING_H_
