// Judging extracted facts and entity links against the synthetic world's
// gold annotations — the stand-in for the paper's human assessors. A fact is
// correct when some gold extraction of the document licenses it (same
// subject, a licensed sub-pattern of the rendered fragment, and matching
// arguments in order).
#ifndef QKBFLY_EVAL_FACT_MATCHING_H_
#define QKBFLY_EVAL_FACT_MATCHING_H_

#include "canon/onthefly_kb.h"
#include "clausie/proposition.h"
#include "synth/dataset.h"

namespace qkbfly {

/// Gold-based correctness judge.
class FactJudge {
 public:
  explicit FactJudge(const SynthDataset* dataset) : dataset_(dataset) {}

  /// Whether a canonicalized fact is licensed by the document's gold.
  bool IsCorrectFact(const Fact& fact, const GoldDocument& gold,
                     const OnTheFlyKb& kb) const;

  /// Whether an uncanonicalized Open IE proposition is licensed: surface
  /// arguments are matched by string against gold entity aliases / literals.
  bool IsCorrectProposition(const Proposition& prop,
                            const GoldDocument& gold) const;

  /// Whether linking a mention with this surface in this sentence to the
  /// repository entity is correct.
  bool IsCorrectLink(int sentence, const std::string& surface,
                     EntityId repo_entity, const GoldDocument& gold) const;

 private:
  bool ArgMatches(const FactArg& arg, const GoldArgMatch& gold,
                  const OnTheFlyKb& kb) const;
  bool SurfaceMatchesGoldArg(const std::string& surface,
                             const GoldArgMatch& gold) const;
  bool SurfaceDenotesEntity(const std::string& surface, int world_entity) const;
  bool RelationMatches(const Fact& fact, const std::string& licensed_pattern,
                       const OnTheFlyKb& kb) const;

  const SynthDataset* dataset_;
};

}  // namespace qkbfly

#endif  // QKBFLY_EVAL_FACT_MATCHING_H_
