#include "eval/fact_matching.h"

#include <algorithm>

#include "util/string_util.h"

namespace qkbfly {

namespace {

// Builds every licensed (pattern, args) pair of a gold extraction:
//  - adverbial prefixes on top of the core arguments,
//  - single-argument triples for each individual argument.
struct LicensedFact {
  std::string pattern;
  std::vector<const GoldArgMatch*> args;
};

std::vector<LicensedFact> EnumerateLicensed(const GoldExtraction& gold) {
  std::vector<LicensedFact> out;
  const size_t k = gold.adverbial_args.size();
  for (size_t j = 0; j <= k; ++j) {
    if (gold.core_args.empty() && j == 0) continue;
    LicensedFact f;
    f.pattern = gold.base_pattern;
    for (const GoldArgMatch& arg : gold.core_args) f.args.push_back(&arg);
    for (size_t i = 0; i < j; ++i) {
      f.pattern += " " + gold.adverbial_args[i].first;
      f.args.push_back(&gold.adverbial_args[i].second);
    }
    out.push_back(std::move(f));
  }
  // Single-argument triples.
  for (const GoldArgMatch& arg : gold.core_args) {
    if (gold.core_args.size() > 1) {
      out.push_back({gold.base_pattern, {&arg}});
    }
  }
  for (const auto& [prep, arg] : gold.adverbial_args) {
    out.push_back({gold.base_pattern + " " + prep, {&arg}});
  }
  return out;
}

bool LiteralMatches(const std::string& extracted, const std::string& gold) {
  std::string a = Lowercase(Trim(extracted));
  std::string b = Lowercase(Trim(gold));
  if (a == b) return true;
  if (a.empty() || b.empty()) return false;
  // Dates: a gold ISO value ("1985-05-03" or "1985") matches any surface or
  // normalized form carrying the same year ("May 3, 1985", "1985-05-03").
  if (b.size() >= 4 && IsAllDigits(b.substr(0, 4))) {
    if (a.find(b.substr(0, 4)) != std::string::npos) return true;
  }
  if (a.size() >= 4 && IsAllDigits(a.substr(0, 4)) &&
      b.find(a.substr(0, 4)) != std::string::npos) {
    return true;
  }
  return a.find(b) != std::string::npos || b.find(a) != std::string::npos;
}

}  // namespace

bool FactJudge::SurfaceDenotesEntity(const std::string& surface,
                                     int world_entity) const {
  const WorldEntity& e = dataset_->world->entity(world_entity);
  for (const std::string& alias : e.aliases) {
    if (EqualsIgnoreCase(surface, alias)) return true;
  }
  return false;
}

bool FactJudge::SurfaceMatchesGoldArg(const std::string& surface,
                                      const GoldArgMatch& gold) const {
  if (gold.is_entity) {
    // The surface may carry a leading article or trailing punctuation; try
    // trimmed variants too.
    if (SurfaceDenotesEntity(surface, gold.entity)) return true;
    std::string trimmed = surface;
    if (StartsWith(Lowercase(trimmed), "the ")) {
      return SurfaceDenotesEntity(trimmed.substr(4), gold.entity);
    }
    return false;
  }
  return LiteralMatches(surface, gold.normalized);
}

bool FactJudge::ArgMatches(const FactArg& arg, const GoldArgMatch& gold,
                           const OnTheFlyKb& kb) const {
  (void)kb;
  if (gold.is_entity) {
    if (arg.kind == FactArg::Kind::kEntity) {
      return arg.entity < dataset_->repo_to_world.size() &&
             dataset_->repo_to_world[arg.entity] == gold.entity;
    }
    // Emerging or literal: judge by surface.
    return SurfaceMatchesGoldArg(arg.surface, gold);
  }
  if (arg.kind != FactArg::Kind::kLiteral) return false;
  return LiteralMatches(arg.normalized.empty() ? arg.surface : arg.normalized,
                        gold.normalized);
}

bool FactJudge::RelationMatches(const Fact& fact,
                                const std::string& licensed_pattern,
                                const OnTheFlyKb& kb) const {
  std::string normalized = PatternRepository::Normalize(licensed_pattern);
  if (PatternRepository::Normalize(fact.relation_pattern) == normalized) {
    return true;
  }
  if (fact.relation == kInvalidRelation) return false;  // surface-only system
  if (auto synset = dataset_->patterns.Lookup(normalized)) {
    if (fact.relation == *synset) return true;
  }
  // KB-local relations (unseen patterns) match by normalized string.
  return PatternRepository::Normalize(kb.RelationName(fact.relation)) == normalized;
}

bool FactJudge::IsCorrectFact(const Fact& fact, const GoldDocument& gold,
                              const OnTheFlyKb& kb) const {
  if (fact.negated) return false;  // the renderer never produces negations
  // Resolve the subject.
  int subject_world = -1;
  if (fact.subject.kind == FactArg::Kind::kEntity) {
    subject_world = fact.subject.entity < dataset_->repo_to_world.size()
                        ? dataset_->repo_to_world[fact.subject.entity]
                        : -1;
  }
  for (const GoldExtraction& g : gold.extractions) {
    bool subject_ok =
        subject_world >= 0
            ? g.subject == subject_world
            : SurfaceMatchesGoldArg(fact.subject.surface,
                                    GoldArgMatch{true, g.subject, ""});
    if (!subject_ok) continue;
    for (const LicensedFact& licensed : EnumerateLicensed(g)) {
      if (licensed.args.size() != fact.args.size()) continue;
      if (!RelationMatches(fact, licensed.pattern, kb)) continue;
      bool all = true;
      for (size_t i = 0; i < licensed.args.size(); ++i) {
        if (!ArgMatches(fact.args[i], *licensed.args[i], kb)) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
  }
  return false;
}

bool FactJudge::IsCorrectProposition(const Proposition& prop,
                                     const GoldDocument& gold) const {
  for (const GoldExtraction& g : gold.extractions) {
    if (!SurfaceMatchesGoldArg(prop.subject.text,
                               GoldArgMatch{true, g.subject, ""})) {
      // Allow surfaces with a leading article.
      continue;
    }
    for (const LicensedFact& licensed : EnumerateLicensed(g)) {
      if (licensed.args.size() != prop.args.size()) continue;
      if (PatternRepository::Normalize(prop.relation) !=
          PatternRepository::Normalize(licensed.pattern)) {
        continue;
      }
      bool all = true;
      for (size_t i = 0; i < licensed.args.size(); ++i) {
        std::string surface = prop.args[i].text;
        // Strip a leading determiner from surface arguments.
        for (const char* det : {"the ", "a ", "an ", "The ", "A ", "An "}) {
          if (StartsWith(surface, det)) {
            surface = surface.substr(std::string(det).size());
            break;
          }
        }
        if (!SurfaceMatchesGoldArg(surface, *licensed.args[i])) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
  }
  return false;
}

bool FactJudge::IsCorrectLink(int sentence, const std::string& surface,
                              EntityId repo_entity,
                              const GoldDocument& gold) const {
  if (repo_entity >= dataset_->repo_to_world.size()) return false;
  int world = dataset_->repo_to_world[repo_entity];
  for (const GoldMention& m : gold.mentions) {
    if (m.sentence == sentence && EqualsIgnoreCase(m.surface, surface)) {
      return m.entity == world;
    }
  }
  return false;
}

}  // namespace qkbfly
