// ClausIE facade: parser + clause detection + proposition generation.
#ifndef QKBFLY_CLAUSIE_CLAUSIE_H_
#define QKBFLY_CLAUSIE_CLAUSIE_H_

#include <memory>
#include <vector>

#include "clausie/clause_detector.h"
#include "clausie/proposition.h"
#include "parser/dependency.h"

namespace qkbfly {

/// End-to-end clause-based Open IE over one POS-tagged sentence.
///
/// Two standard configurations mirror the paper:
///  - original ClausIE: the slow graph-based parser plus all adverbial
///    subsets (more extractions, higher parse cost);
///  - QKBfly extraction: the fast transition-style parser plus consolidated
///    n-ary propositions.
class ClausIe {
 public:
  ClausIe(std::unique_ptr<DependencyParser> parser,
          PropositionGenerator::Options options)
      : parser_(std::move(parser)), options_(options) {}

  /// The "original ClausIE" configuration.
  static ClausIe Original();

  /// The QKBfly extraction-phase configuration.
  static ClausIe Fast();

  /// Runs the configured parser and detects clauses.
  std::vector<Clause> DetectClauses(const std::vector<Token>& tokens) const {
    DependencyParse parse = parser_->Parse(tokens);
    return detector_.Detect(tokens, parse);
  }

  /// Full extraction: clauses to propositions.
  std::vector<Proposition> Extract(const std::vector<Token>& tokens) const {
    return generator_.Generate(tokens, DetectClauses(tokens), options_);
  }

  const DependencyParser& parser() const { return *parser_; }

 private:
  std::unique_ptr<DependencyParser> parser_;
  ClauseDetector detector_;
  PropositionGenerator generator_;
  PropositionGenerator::Options options_;
};

}  // namespace qkbfly

#endif  // QKBFLY_CLAUSIE_CLAUSIE_H_
