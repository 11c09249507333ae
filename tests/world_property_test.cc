// Property sweeps over world seeds: the dataset-builder invariants and the
// extraction pipeline's quality floor must hold for any seed, not just the
// default one used by the experiment benches.
#include <gtest/gtest.h>

#include "core/qkbfly.h"
#include "eval/fact_matching.h"
#include "eval/metrics.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

class WorldSeedTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static std::unique_ptr<SynthDataset> Build(uint64_t seed) {
    DatasetConfig config;
    config.seed = seed;
    config.world.seed = seed;
    config.wiki_eval_articles = 15;
    config.news_docs = 8;
    config.reverb_sentences = 40;
    return BuildDataset(config);
  }
};

TEST_P(WorldSeedTest, RepositoryConsistency) {
  auto ds = Build(GetParam());
  // Every repository entity maps back to a non-emerging world entity with
  // the same name, and the alias dictionary covers every alias.
  for (size_t r = 0; r < ds->repository->size(); ++r) {
    const Entity& e = ds->repository->Get(static_cast<EntityId>(r));
    const WorldEntity& w = ds->world->entity(ds->repo_to_world[r]);
    EXPECT_EQ(e.canonical_name, w.name);
    EXPECT_FALSE(w.emerging);
    for (const std::string& alias : e.aliases) {
      const auto& bucket = ds->repository->CandidatesForAlias(alias);
      EXPECT_NE(std::find(bucket.begin(), bucket.end(), static_cast<EntityId>(r)),
                bucket.end());
    }
  }
}

TEST_P(WorldSeedTest, EveryGoldExtractionPatternResolvable) {
  auto ds = Build(GetParam());
  for (const GoldDocument& gd : ds->wiki_eval) {
    for (const GoldExtraction& g : gd.extractions) {
      std::string pattern = g.base_pattern;
      for (const auto& [prep, arg] : g.adverbial_args) pattern += " " + prep;
      EXPECT_TRUE(ds->patterns.Lookup(pattern).has_value())
          << "unresolvable gold pattern: " << pattern;
    }
  }
}

TEST_P(WorldSeedTest, FactsRespectTypeSignatures) {
  auto ds = Build(GetParam());
  const auto& catalog = RelationCatalog();
  for (const WorldFact& f : ds->world->facts()) {
    const RelationSpec& spec = catalog[static_cast<size_t>(f.relation)];
    auto subject_type = ds->types.Find(spec.subject_type);
    ASSERT_TRUE(subject_type.has_value());
    bool subject_ok = false;
    for (TypeId t : ds->world->entity(f.subject).types) {
      subject_ok = subject_ok || ds->types.IsA(t, *subject_type);
    }
    EXPECT_TRUE(subject_ok) << spec.canonical;
    ASSERT_EQ(f.args.size(), spec.args.size());
    for (size_t i = 0; i < f.args.size(); ++i) {
      if (!f.args[i].is_entity) continue;
      auto arg_type = ds->types.Find(spec.args[i].type);
      ASSERT_TRUE(arg_type.has_value());
      bool arg_ok = false;
      for (TypeId t : ds->world->entity(f.args[i].entity).types) {
        arg_ok = arg_ok || ds->types.IsA(t, *arg_type);
      }
      EXPECT_TRUE(arg_ok) << spec.canonical;
    }
  }
}

TEST_P(WorldSeedTest, ExtractionQualityFloor) {
  auto ds = Build(GetParam());
  EngineConfig config;
  QkbflyEngine engine(ds->repository.get(), &ds->patterns, &ds->stats, config);
  FactJudge judge(ds.get());
  PrecisionStats facts;
  for (const GoldDocument& gd : ds->wiki_eval) {
    auto kb = engine.MakeKb();
    Canonicalizer::Merge(&kb, engine.ExtractDocument(gd.doc));
    for (const Fact& f : kb.facts()) {
      facts.Add(judge.IsCorrectFact(f, gd, kb));
    }
  }
  EXPECT_GT(facts.total, 20);
  EXPECT_GT(facts.Precision(), 0.6) << "seed " << GetParam();
}

TEST_P(WorldSeedTest, DatasetBuildIsDeterministic) {
  auto a = Build(GetParam());
  auto b = Build(GetParam());
  ASSERT_EQ(a->wiki_eval.size(), b->wiki_eval.size());
  for (size_t i = 0; i < a->wiki_eval.size(); ++i) {
    EXPECT_EQ(a->wiki_eval[i].doc.text, b->wiki_eval[i].doc.text);
  }
  ASSERT_EQ(a->news.size(), b->news.size());
  for (size_t i = 0; i < a->news.size(); ++i) {
    EXPECT_EQ(a->news[i].doc.text, b->news[i].doc.text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldSeedTest,
                         ::testing::Values(1u, 7u, 42u, 123u, 2026u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace qkbfly
