#include "clausie/proposition.h"

#include <algorithm>

namespace qkbfly {

namespace {

PropositionArg MakeArg(const std::vector<Token>& tokens, const Constituent& c) {
  PropositionArg arg;
  arg.span = c.span;
  arg.head = c.head;
  arg.text = SpanText(tokens, c.span);
  return arg;
}

// Builds one proposition from a clause using the first `num_adverbials`
// adverbial arguments.
Proposition Build(const std::vector<Token>& tokens, const Clause& clause,
                  int clause_index, size_t num_adverbials) {
  Proposition p;
  p.clause_type = clause.type;
  p.clause_index = clause_index;
  p.subject = MakeArg(tokens, clause.subject);

  std::string relation = clause.negated ? "not " + clause.relation : clause.relation;
  for (const Constituent& obj : clause.objects) {
    p.args.push_back(MakeArg(tokens, obj));
  }
  if (clause.complement) {
    p.args.push_back(MakeArg(tokens, *clause.complement));
  }
  for (size_t a = 0; a < num_adverbials && a < clause.adverbials.size(); ++a) {
    const Constituent& adv = clause.adverbials[a];
    if (!adv.preposition.empty()) relation += " " + adv.preposition;
    p.args.push_back(MakeArg(tokens, adv));
  }
  p.relation = std::move(relation);
  return p;
}

}  // namespace

std::string Proposition::ToString() const {
  std::string out = "(" + subject.text + "; " + relation;
  for (const PropositionArg& a : args) out += "; " + a.text;
  out += ")";
  return out;
}

std::vector<Proposition> PropositionGenerator::Generate(
    const std::vector<Token>& tokens, const std::vector<Clause>& clauses,
    const Options& options) const {
  std::vector<Proposition> props;
  for (size_t i = 0; i < clauses.size(); ++i) {
    const Clause& clause = clauses[i];
    if (!clause.has_subject) continue;
    const size_t num_adv = clause.adverbials.size();
    const bool has_core_arg = !clause.objects.empty() || clause.complement.has_value();
    // An SV clause with no arguments at all has nothing to relate.
    if (!has_core_arg && num_adv == 0) continue;

    if (options.all_adverbial_subsets) {
      // One proposition per adverbial prefix. Without core arguments the
      // zero-adverbial variant would be argless, so start at 1 in that case.
      size_t start = has_core_arg ? 0 : 1;
      for (size_t k = start; k <= num_adv; ++k) {
        props.push_back(Build(tokens, clause, static_cast<int>(i), k));
      }
    } else {
      props.push_back(Build(tokens, clause, static_cast<int>(i), num_adv));
    }
  }
  return props;
}

}  // namespace qkbfly
