// N-ary propositions generated from clauses — the (not yet canonicalized)
// Open IE output of the extraction phase.
#ifndef QKBFLY_CLAUSIE_PROPOSITION_H_
#define QKBFLY_CLAUSIE_PROPOSITION_H_

#include <string>
#include <vector>

#include "clausie/clause.h"
#include "text/token.h"

namespace qkbfly {

/// One argument of a proposition.
struct PropositionArg {
  TokenSpan span;
  int head = -1;
  std::string text;  ///< Surface form of the span.
};

/// An n-ary surface-level fact: subject, relation pattern, ordered arguments.
struct Proposition {
  std::string relation;  ///< e.g. "donate to", "be", "not support".
  PropositionArg subject;
  std::vector<PropositionArg> args;
  ClauseType clause_type = ClauseType::kSV;
  int clause_index = -1;  ///< Which detected clause produced it.

  /// Number of fact positions (subject + args): 2 = unary relation surface,
  /// 3 = triple, 4+ = higher-arity.
  int Arity() const { return 1 + static_cast<int>(args.size()); }

  /// Renders "(subject; relation; arg1; arg2)" for logs and demos.
  std::string ToString() const;
};

/// Turns clauses into propositions.
class PropositionGenerator {
 public:
  struct Options {
    /// Original-ClausIE behaviour: besides the maximal n-ary proposition,
    /// emit one proposition per adverbial prefix (including none), which
    /// multiplies the extraction count — the reason ClausIE reports more
    /// extractions than QKBfly in the paper's Table 5.
    bool all_adverbial_subsets = false;
  };

  std::vector<Proposition> Generate(const std::vector<Token>& tokens,
                                    const std::vector<Clause>& clauses,
                                    const Options& options) const;
};

}  // namespace qkbfly

#endif  // QKBFLY_CLAUSIE_PROPOSITION_H_
