#include "canon/onthefly_kb.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace qkbfly
