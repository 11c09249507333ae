#include "canon/onthefly_kb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "canon/canonicalizer.h"
#include "core/qkbfly.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

class OnTheFlyKbTest : public ::testing::Test {
 protected:
  OnTheFlyKbTest() : types_(TypeSystem::BuildDefault()), repo_(&types_) {
    actor_ = repo_.AddEntity("Brad Pitt", {"Pitt"}, {*types_.Find("ACTOR")},
                             Gender::kMale);
    film_ = repo_.AddEntity("Troy", {}, {*types_.Find("FILM")});
    play_ = patterns_.AddSynset("play in", {"star in", "act in"});
  }

  FactArg EntityArg(EntityId e) {
    FactArg arg;
    arg.kind = FactArg::Kind::kEntity;
    arg.entity = e;
    return arg;
  }

  Fact MakeFact(OnTheFlyKb* kb, const std::string& pattern, EntityId s,
                EntityId o) {
    Fact f;
    f.relation_pattern = pattern;
    f.relation = kb->RelationFor(pattern);
    f.subject = EntityArg(s);
    f.args.push_back(EntityArg(o));
    return f;
  }

  TypeSystem types_;
  EntityRepository repo_;
  PatternRepository patterns_;
  EntityId actor_, film_;
  RelationId play_;
};

TEST_F(OnTheFlyKbTest, SynonymousPatternsMerge) {
  OnTheFlyKb kb(&repo_, &patterns_);
  kb.AddFact(MakeFact(&kb, "star in", actor_, film_));
  kb.AddFact(MakeFact(&kb, "act in", actor_, film_));
  EXPECT_EQ(kb.size(), 1u);  // same synset, same args -> one fact
  EXPECT_EQ(kb.facts()[0].relation, play_);
}

TEST_F(OnTheFlyKbTest, NewPatternsBecomeNewRelations) {
  OnTheFlyKb kb(&repo_, &patterns_);
  RelationId forget = kb.RelationFor("forget");
  EXPECT_GE(forget, patterns_.size());  // KB-local id
  EXPECT_EQ(kb.RelationName(forget), "forget");
  EXPECT_EQ(kb.RelationFor("forget"), forget);  // stable
}

TEST_F(OnTheFlyKbTest, ConfidenceMergeKeepsMax) {
  OnTheFlyKb kb(&repo_, &patterns_);
  Fact a = MakeFact(&kb, "play in", actor_, film_);
  a.confidence = 0.6;
  Fact b = MakeFact(&kb, "play in", actor_, film_);
  b.confidence = 0.9;
  kb.AddFact(a);
  kb.AddFact(b);
  ASSERT_EQ(kb.size(), 1u);
  EXPECT_DOUBLE_EQ(kb.facts()[0].confidence, 0.9);
}

TEST_F(OnTheFlyKbTest, EmergingEntityRendering) {
  OnTheFlyKb kb(&repo_, &patterns_);
  EmergingId id = kb.AddEmergingEntity("Jessica Leeds", {"Jessica Leeds", "Leeds"},
                                       NerType::kPerson);
  FactArg arg;
  arg.kind = FactArg::Kind::kEmerging;
  arg.emerging = id;
  EXPECT_EQ(kb.ArgName(arg), "Jessica Leeds*");
}

TEST_F(OnTheFlyKbTest, LiteralRendering) {
  OnTheFlyKb kb(&repo_, &patterns_);
  FactArg arg;
  arg.kind = FactArg::Kind::kLiteral;
  arg.surface = "September 19, 2016";
  arg.normalized = "2016-09-19";
  EXPECT_EQ(kb.ArgName(arg), "\"2016-09-19\"");
}

TEST_F(OnTheFlyKbTest, SearchBySubstring) {
  OnTheFlyKb kb(&repo_, &patterns_);
  kb.AddFact(MakeFact(&kb, "play in", actor_, film_));
  EXPECT_EQ(kb.Search("Pitt", "", "").size(), 1u);
  EXPECT_EQ(kb.Search("", "play", "").size(), 1u);
  EXPECT_EQ(kb.Search("", "", "Troy").size(), 1u);
  EXPECT_TRUE(kb.Search("Nobody", "", "").empty());
  EXPECT_TRUE(kb.Search("", "divorce", "").empty());
}

TEST_F(OnTheFlyKbTest, SearchByType) {
  OnTheFlyKb kb(&repo_, &patterns_);
  kb.AddFact(MakeFact(&kb, "play in", actor_, film_));
  EXPECT_EQ(kb.Search("Type:ACTOR", "", "").size(), 1u);
  EXPECT_EQ(kb.Search("Type:PERSON", "", "").size(), 1u);  // supertype
  EXPECT_TRUE(kb.Search("Type:CITY", "", "").empty());
  EXPECT_EQ(kb.Search("", "", "Type:FILM").size(), 1u);
}

TEST_F(OnTheFlyKbTest, UnderscorePredicateSearch) {
  OnTheFlyKb kb(&repo_, &patterns_);
  kb.AddFact(MakeFact(&kb, "play in", actor_, film_));
  // The demo UI writes predicates with underscores.
  EXPECT_EQ(kb.Search("", "play_in", "").size(), 1u);
}

TEST_F(OnTheFlyKbTest, NegatedFactRendering) {
  OnTheFlyKb kb(&repo_, &patterns_);
  Fact f = MakeFact(&kb, "play in", actor_, film_);
  f.negated = true;
  kb.AddFact(f);
  EXPECT_EQ(kb.FactToString(kb.facts()[0]), "<Brad Pitt, not play in, Troy>");
}

// Escapes at the edges of a field, back to back, and filling a whole field
// survive Serialize -> Deserialize; every malformed escape is rejected.
TEST_F(OnTheFlyKbTest, EscapedFieldsRoundTrip) {
  const std::vector<std::string> mentions = {
      "\tlead", "trail\n", "a\\\tb", "\\\t\n\r", "\r\rplain\\\\"};
  OnTheFlyKb kb(&repo_, &patterns_);
  kb.AddEmergingEntity("\\rep\t", mentions, NerType::kPerson);
  const std::string bytes = kb.Serialize();

  OnTheFlyKb rebuilt(&repo_, &patterns_);
  Status status = rebuilt.Deserialize(bytes);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(rebuilt.Serialize(), bytes);
  ASSERT_EQ(rebuilt.emerging_entities().size(), 1u);
  EXPECT_EQ(rebuilt.emerging_entities()[0].representative, "\\rep\t");
  EXPECT_EQ(rebuilt.emerging_entities()[0].mentions, mentions);

  auto parses = [&](const std::string& field) {
    OnTheFlyKb one(&repo_, &patterns_);
    return one.Deserialize("qkbfly-kb\t1\nE\t1\t" + field + "\n").ok();
  };
  EXPECT_TRUE(parses("ok\\t\\\\"));
  for (const char* field : {"a\rb", "dangling\\", "\\x", "\\", "ok\\q"}) {
    EXPECT_FALSE(parses(field)) << field;
  }
}

// The merge AddFact made before it was indexed: a scan for the first
// equivalent fact. Kept as the reference the hash index is held to.
void ReferenceAddFact(std::vector<Fact>* facts, Fact fact) {
  for (Fact& existing : *facts) {
    if (existing.relation == fact.relation && existing.negated == fact.negated &&
        existing.subject == fact.subject && existing.args == fact.args) {
      existing.confidence = std::max(existing.confidence, fact.confidence);
      return;
    }
  }
  facts->push_back(std::move(fact));
}

// Canonicalizer::Merge with ReferenceAddFact in place of AddFact: `ids`
// mints the emerging and relation ids exactly as the KB under test does.
void ReferenceMerge(OnTheFlyKb* ids, std::vector<Fact>* facts,
                    DocumentFacts doc) {
  std::vector<EmergingId> remapped;
  for (EmergingEntity& c : doc.clusters) {
    remapped.push_back(ids->AddEmergingEntity(c.representative, c.mentions,
                                              c.ner));
  }
  auto remap = [&remapped](FactArg& arg) {
    if (arg.kind == FactArg::Kind::kEmerging) {
      arg.emerging = remapped[arg.emerging];
    }
  };
  for (Fact& fact : doc.facts) {
    remap(fact.subject);
    for (FactArg& arg : fact.args) remap(arg);
    fact.relation = ids->RelationFor(fact.relation_pattern);
    ReferenceAddFact(facts, std::move(fact));
  }
}

// Every field of every fact, the confidence to the last bit.
std::string Describe(const std::vector<Fact>& facts) {
  std::ostringstream out;
  auto arg = [&out](const FactArg& a) {
    out << " [" << static_cast<int>(a.kind) << ' ' << a.entity << ' '
        << a.emerging << ' ' << a.surface << '|' << a.normalized << ' '
        << static_cast<int>(a.ner) << ']';
  };
  for (const Fact& f : facts) {
    char confidence[32];
    std::snprintf(confidence, sizeof(confidence), "%a", f.confidence);
    out << f.relation << ' ' << f.relation_pattern << ' ' << f.negated << ' '
        << confidence << ' ' << f.doc_id << ' ' << f.sentence;
    arg(f.subject);
    for (const FactArg& a : f.args) arg(a);
    out << '\n';
  }
  return out.str();
}

// Real extractions, merged once in order and again in reverse (so entity
// facts recur and merge), give the same facts, order and confidences
// through the index as through the scan.
TEST(OnTheFlyKbMergeTest, IndexedAddFactMatchesTheScanOnExtractedFacts) {
  DatasetConfig config;
  config.wiki_eval_articles = 12;
  std::unique_ptr<SynthDataset> ds = BuildDataset(config);
  QkbflyEngine engine(ds->repository.get(), &ds->patterns, &ds->stats,
                      EngineConfig());
  std::vector<DocumentFacts> extracted;
  for (const GoldDocument& gd : ds->wiki_eval) {
    extracted.push_back(engine.ExtractDocument(gd.doc));
  }
  std::vector<const DocumentFacts*> order;
  for (const DocumentFacts& doc : extracted) order.push_back(&doc);
  for (auto it = extracted.rbegin(); it != extracted.rend(); ++it) {
    order.push_back(&*it);
  }

  OnTheFlyKb kb = engine.MakeKb();
  OnTheFlyKb ids = engine.MakeKb();
  std::vector<Fact> reference;
  size_t inputs = 0;
  for (const DocumentFacts* doc : order) {
    inputs += doc->facts.size();
    Canonicalizer::Merge(&kb, *doc);
    ReferenceMerge(&ids, &reference, *doc);
  }
  ASSERT_GT(reference.size(), 50u);
  ASSERT_LT(reference.size(), inputs);  // some inputs merged
  EXPECT_EQ(Describe(kb.facts()), Describe(reference));

  // ShrinkToFit drops the index; later merges rebuild it.
  kb.ShrinkToFit();
  for (const DocumentFacts& doc : extracted) {
    Canonicalizer::Merge(&kb, doc);
    ReferenceMerge(&ids, &reference, doc);
  }
  EXPECT_EQ(Describe(kb.facts()), Describe(reference));
}

// Equal facts by every route the equality allows (synonymous patterns,
// a literal's surface against its normalized form), and a deserialized
// stream that holds one fact twice: the earliest equal fact absorbs each
// later one, as in the scan.
TEST_F(OnTheFlyKbTest, DuplicatedFactsMergeIntoTheEarliest) {
  auto literal = [](const std::string& surface, const std::string& normalized) {
    FactArg arg;
    arg.kind = FactArg::Kind::kLiteral;
    arg.surface = surface;
    arg.normalized = normalized;
    return arg;
  };
  OnTheFlyKb built(&repo_, &patterns_);
  std::vector<Fact> inputs;
  for (int round = 0; round < 3; ++round) {
    Fact play = MakeFact(&built, round == 1 ? "star in" : "act in", actor_, film_);
    play.confidence = 0.3 + 0.2 * round;
    inputs.push_back(play);
    Fact negated = play;
    negated.negated = true;
    negated.confidence = 0.9 - 0.2 * round;
    inputs.push_back(negated);
    Fact born = MakeFact(&built, "bear in", actor_, film_);
    born.args = {round == 0 ? literal("1963", "") : literal("in 1963", "1963")};
    born.confidence = 0.4 + 0.1 * round;
    inputs.push_back(born);
    Fact other = born;
    other.args = {literal("1964", "")};
    inputs.push_back(other);
  }
  std::vector<Fact> reference;
  for (const Fact& f : inputs) {
    built.AddFact(f);
    ReferenceAddFact(&reference, f);
  }
  EXPECT_EQ(built.size(), 4u);
  EXPECT_EQ(Describe(built.facts()), Describe(reference));

  // Repeat every fact line of the serialized KB: Deserialize appends
  // verbatim, so the rebuilt KB holds each fact twice.
  std::string doubled;
  std::istringstream lines(built.Serialize());
  for (std::string line; std::getline(lines, line);) {
    doubled += line + "\n";
    if (line.rfind("F\t", 0) == 0) doubled += line + "\n";
  }
  OnTheFlyKb loaded(&repo_, &patterns_);
  ASSERT_TRUE(loaded.Deserialize(doubled).ok());
  ASSERT_EQ(loaded.size(), 8u);
  std::vector<Fact> loaded_reference = loaded.facts();
  for (Fact f : inputs) {
    f.confidence += 0.05;
    loaded.AddFact(f);
    ReferenceAddFact(&loaded_reference, f);
  }
  EXPECT_EQ(loaded.size(), 8u);
  EXPECT_EQ(Describe(loaded.facts()), Describe(loaded_reference));
}

}  // namespace
}  // namespace qkbfly
