#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "kb/entity_repository.h"
#include "kb/pattern_repository.h"
#include "kb/type_system.h"
#include "nlp/pipeline.h"
#include "text/tokenizer.h"

namespace qkbfly {
namespace {

TEST(TypeSystemTest, AddAndFind) {
  TypeSystem ts;
  auto person = ts.AddType("PERSON");
  ASSERT_TRUE(person.ok());
  EXPECT_EQ(ts.Find("PERSON"), *person);
  EXPECT_EQ(ts.Name(*person), "PERSON");
  EXPECT_FALSE(ts.Find("ALIEN").has_value());
}

TEST(TypeSystemTest, DuplicateRejected) {
  TypeSystem ts;
  ASSERT_TRUE(ts.AddType("PERSON").ok());
  auto dup = ts.AddType("PERSON");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(TypeSystemTest, TransitiveSubsumption) {
  TypeSystem ts = TypeSystem::BuildDefault();
  TypeId footballer = *ts.Find("FOOTBALLER");
  TypeId athlete = *ts.Find("ATHLETE");
  TypeId person = *ts.Find("PERSON");
  TypeId org = *ts.Find("ORGANIZATION");
  EXPECT_TRUE(ts.IsA(footballer, athlete));
  EXPECT_TRUE(ts.IsA(footballer, person));
  EXPECT_TRUE(ts.IsA(footballer, footballer));
  EXPECT_FALSE(ts.IsA(athlete, footballer));
  EXPECT_FALSE(ts.IsA(footballer, org));
}

TEST(TypeSystemTest, AncestorsIncludeSelf) {
  TypeSystem ts = TypeSystem::BuildDefault();
  TypeId singer = *ts.Find("SINGER");
  auto ancestors = ts.AncestorsOf(singer);
  auto has = [&ancestors](TypeId t) {
    return std::find(ancestors.begin(), ancestors.end(), t) != ancestors.end();
  };
  EXPECT_TRUE(has(singer));
  EXPECT_TRUE(has(*ts.Find("MUSICAL_ARTIST")));
  EXPECT_TRUE(has(*ts.Find("ARTIST")));
  EXPECT_TRUE(has(*ts.Find("PERSON")));
}

TEST(TypeSystemTest, CoarseRollup) {
  TypeSystem ts = TypeSystem::BuildDefault();
  EXPECT_EQ(ts.CoarseOf(*ts.Find("FOOTBALLER")), NerType::kPerson);
  EXPECT_EQ(ts.CoarseOf(*ts.Find("FOOTBALL_CLUB")), NerType::kOrganization);
  EXPECT_EQ(ts.CoarseOf(*ts.Find("CITY")), NerType::kLocation);
  EXPECT_EQ(ts.CoarseOf(*ts.Find("FILM")), NerType::kMisc);
  EXPECT_EQ(ts.CoarseOf(*ts.Find("AWARD")), NerType::kMisc);
}

class EntityRepositoryTest : public ::testing::Test {
 protected:
  EntityRepositoryTest() : types_(TypeSystem::BuildDefault()), repo_(&types_) {
    actor_ = repo_.AddEntity("Brad Pitt", {"Pitt", "William Bradley Pitt"},
                             {*types_.Find("ACTOR")}, Gender::kMale);
    city_ = repo_.AddEntity("Liverpool", {}, {*types_.Find("CITY")});
    club_ = repo_.AddEntity("Liverpool F.C.", {"Liverpool"},
                            {*types_.Find("FOOTBALL_CLUB")});
  }

  TypeSystem types_;
  EntityRepository repo_;
  EntityId actor_, city_, club_;
};

TEST_F(EntityRepositoryTest, CanonicalNameIsAlias) {
  auto candidates = repo_.CandidatesForAlias("brad pitt");
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], actor_);
}

TEST_F(EntityRepositoryTest, AmbiguousAlias) {
  auto candidates = repo_.CandidatesForAlias("Liverpool");
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), city_), candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), club_), candidates.end());
}

TEST_F(EntityRepositoryTest, FindByName) {
  auto id = repo_.FindByName("Brad Pitt");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, actor_);
  EXPECT_EQ(repo_.FindByName("Nobody").status().code(), StatusCode::kNotFound);
}

TEST_F(EntityRepositoryTest, TypeQueries) {
  EXPECT_EQ(repo_.CoarseTypeOf(actor_), NerType::kPerson);
  EXPECT_TRUE(repo_.HasType(actor_, *types_.Find("PERSON")));
  EXPECT_TRUE(repo_.HasType(club_, *types_.Find("SPORTS_CLUB")));
  EXPECT_FALSE(repo_.HasType(city_, *types_.Find("PERSON")));
}

TEST_F(EntityRepositoryTest, GazetteerLongestMatch) {
  Tokenizer tok;
  auto tokens = tok.Tokenize("Brad Pitt visited Liverpool");
  NerType type = NerType::kNone;
  int len = repo_.LongestMatchAt(tokens, 0, &type);
  EXPECT_EQ(len, 2);
  EXPECT_EQ(type, NerType::kPerson);
  len = repo_.LongestMatchAt(tokens, 3, &type);
  EXPECT_EQ(len, 1);
}

TEST_F(EntityRepositoryTest, GazetteerRejectsLowercase) {
  Tokenizer tok;
  auto tokens = tok.Tokenize("brad pitt visited");
  EXPECT_EQ(repo_.LongestMatchAt(tokens, 0, nullptr), 0);
}

TEST_F(EntityRepositoryTest, NerIntegration) {
  NlpPipeline pipeline(&repo_);
  auto s = pipeline.AnnotateSentence("Brad Pitt visited Liverpool.");
  ASSERT_GE(s.ner_mentions.size(), 2u);
  EXPECT_EQ(SpanText(s.tokens, s.ner_mentions[0].span), "Brad Pitt");
  EXPECT_EQ(s.ner_mentions[0].type, NerType::kPerson);
}

TEST_F(EntityRepositoryTest, TypeClosureIsConcatenatedAncestors) {
  const TypeId actor = *types_.Find("ACTOR");
  const TypeId singer = *types_.Find("SINGER");
  const TypeId city = *types_.Find("CITY");
  // Same closure as actor_, a multi-type entity in both orders, an
  // untyped one, and one whose types repeat.
  const EntityId twin = repo_.AddEntity("Tom Ford", {}, {actor});
  const EntityId both = repo_.AddEntity("Cher", {}, {actor, singer});
  const EntityId swapped = repo_.AddEntity("Madonna", {}, {singer, actor});
  const EntityId untyped = repo_.AddEntity("Somebody", {}, {});
  const EntityId doubled = repo_.AddEntity("Paris", {}, {city, city});
  const std::vector<EntityId> all = {actor_, city_,    club_,   twin,
                                     both,   swapped, untyped, doubled};
  std::vector<std::vector<TypeId>> closures;
  for (EntityId e : all) {
    std::vector<TypeId> want;
    for (TypeId t : repo_.Get(e).types) types_.AncestorsInto(t, &want);
    const std::span<const TypeId> got =
        repo_.TypeClosure(repo_.Get(e).type_set);
    EXPECT_EQ(std::vector<TypeId>(got.begin(), got.end()), want)
        << repo_.Get(e).canonical_name;
    closures.push_back(want);
  }
  // Equal ids exactly when the closures are equal; ids are dense.
  std::set<uint32_t> ids;
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = 0; j < all.size(); ++j) {
      EXPECT_EQ(repo_.Get(all[i]).type_set == repo_.Get(all[j]).type_set,
                closures[i] == closures[j])
          << i << " vs " << j;
    }
    ids.insert(repo_.Get(all[i]).type_set);
  }
  EXPECT_EQ(ids, (std::set<uint32_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(repo_.Get(twin).type_set, repo_.Get(actor_).type_set);
  EXPECT_NE(repo_.Get(both).type_set, repo_.Get(swapped).type_set);
  EXPECT_TRUE(repo_.TypeClosure(repo_.Get(untyped).type_set).empty());
}

TEST(PatternRepositoryTest, Normalization) {
  EXPECT_EQ(PatternRepository::Normalize("  Play   In "), "play in");
  EXPECT_EQ(PatternRepository::Normalize("not support"), "support");
}

TEST(PatternRepositoryTest, SynsetLookup) {
  PatternRepository repo;
  RelationId play = repo.AddSynset("play in", {"act in", "star in", "have role in"});
  RelationId marry = repo.AddSynset("marry", {"wed", "be married to"});
  EXPECT_EQ(repo.Lookup("star in"), play);
  EXPECT_EQ(repo.Lookup("Act In"), play);
  EXPECT_EQ(repo.Lookup("wed"), marry);
  EXPECT_EQ(repo.Lookup("play in"), play);
  EXPECT_FALSE(repo.Lookup("divorce from").has_value());
  EXPECT_EQ(repo.CanonicalName(play), "play in");
  EXPECT_EQ(repo.size(), 2u);
}

TEST(PatternRepositoryTest, FirstOwnerWinsOnConflict) {
  PatternRepository repo;
  RelationId a = repo.AddSynset("win", {"receive"});
  repo.AddSynset("receive", {"get"});
  EXPECT_EQ(repo.Lookup("receive"), a);  // claimed by the first synset
}

TEST(PatternRepositoryTest, NegationStripped) {
  PatternRepository repo;
  RelationId support = repo.AddSynset("support", {});
  EXPECT_EQ(repo.Lookup("not support"), support);
}

}  // namespace
}  // namespace qkbfly
