// Validation of the synthetic world, renderer and dataset builder — and the
// key invariant that every renderable fragment produces clause patterns the
// pattern repository can canonicalize.
#include "synth/dataset.h"

#include <gtest/gtest.h>

#include <cmath>

#include "clausie/clausie.h"
#include "core/qkbfly.h"
#include "eval/fact_matching.h"
#include "eval/metrics.h"
#include "nlp/pipeline.h"

namespace qkbfly {
namespace {

const SynthDataset& Dataset() {
  static const SynthDataset* ds = BuildDataset(DatasetConfig()).release();
  return *ds;
}

TEST(RelationCatalogTest, FragmentPatternsResolveToSynsets) {
  const auto& ds = Dataset();
  for (const RelationSpec& spec : RelationCatalog()) {
    for (const FragmentSpec& frag : spec.fragments) {
      std::string pattern = frag.base;
      for (const ArgSlot& slot : spec.args) {
        if (!slot.prep.empty()) pattern += " " + slot.prep;
      }
      EXPECT_TRUE(ds.patterns.Lookup(pattern).has_value())
          << "fragment '" << frag.text << "' produces unknown pattern '"
          << pattern << "'";
    }
  }
}

TEST(RelationCatalogTest, PrefixPatternsResolveToSynsets) {
  const auto& ds = Dataset();
  for (const RelationSpec& spec : RelationCatalog()) {
    for (const FragmentSpec& frag : spec.fragments) {
      std::string pattern = frag.base;
      bool has_core = false;
      for (const ArgSlot& slot : spec.args) {
        if (slot.prep.empty()) has_core = true;
      }
      if (has_core) {
        EXPECT_TRUE(ds.patterns.Lookup(pattern).has_value())
            << "core prefix '" << pattern << "' of '" << frag.text
            << "' unknown";
      }
      for (const ArgSlot& slot : spec.args) {
        if (slot.prep.empty()) continue;
        pattern += " " + slot.prep;
        EXPECT_TRUE(ds.patterns.Lookup(pattern).has_value())
            << "prefix '" << pattern << "' of '" << frag.text << "' unknown";
      }
    }
  }
}

TEST(WorldTest, DeterministicForSameSeed) {
  TypeSystem types = TypeSystem::BuildDefault();
  WorldConfig config;
  World a(&types, config);
  World b(&types, config);
  ASSERT_EQ(a.entities().size(), b.entities().size());
  ASSERT_EQ(a.facts().size(), b.facts().size());
  for (size_t i = 0; i < a.entities().size(); ++i) {
    EXPECT_EQ(a.entities()[i].name, b.entities()[i].name);
    EXPECT_EQ(a.entities()[i].emerging, b.entities()[i].emerging);
  }
}

TEST(WorldTest, SnapshotRepositoryExcludesEmerging) {
  const auto& ds = Dataset();
  size_t emerging = 0;
  for (const WorldEntity& e : ds.world->entities()) {
    if (e.emerging) ++emerging;
  }
  EXPECT_EQ(ds.repository->size() + emerging, ds.world->entities().size());
  for (size_t r = 0; r < ds.repo_to_world.size(); ++r) {
    const WorldEntity& e = ds.world->entity(ds.repo_to_world[r]);
    EXPECT_FALSE(e.emerging);
    EXPECT_EQ(ds.repository->Get(static_cast<EntityId>(r)).canonical_name, e.name);
  }
}

TEST(WorldTest, AmbiguousAliasesExist) {
  const auto& ds = Dataset();
  // At least one alias must map to multiple repository entities (shared
  // surnames / city-club collisions) or NED would be trivial.
  int ambiguous = 0;
  for (const WorldEntity& e : ds.world->entities()) {
    if (e.emerging) continue;
    for (const std::string& alias : e.aliases) {
      if (ds.repository->CandidatesForAlias(alias).size() >= 2) ++ambiguous;
    }
  }
  EXPECT_GE(ambiguous, 5);
}

TEST(RendererTest, MentionsCoverRenderedEntities) {
  const auto& ds = Dataset();
  ASSERT_FALSE(ds.wiki_eval.empty());
  for (const GoldDocument& gd : ds.wiki_eval) {
    EXPECT_FALSE(gd.doc.text.empty());
    EXPECT_FALSE(gd.mentions.empty());
    EXPECT_FALSE(gd.extractions.empty());
    for (const GoldMention& m : gd.mentions) {
      // The mention surface literally occurs in the text.
      EXPECT_NE(gd.doc.text.find(m.surface), std::string::npos)
          << m.surface << " missing from: " << gd.doc.text;
    }
  }
}

TEST(RendererTest, BackgroundDocsCarryAnchors) {
  const auto& ds = Dataset();
  int with_anchors = 0;
  for (const Document& doc : ds.background.all()) {
    if (!doc.anchors.empty()) ++with_anchors;
  }
  EXPECT_GT(with_anchors, static_cast<int>(ds.background.size()) / 2);
}

TEST(DatasetTest, CorporaEmergingEntityGradient) {
  // The Wikia corpus must have a much higher emerging-entity rate than the
  // wiki corpus (the paper reports 13% / 24% / 71%).
  const auto& ds = Dataset();
  auto emerging_rate = [&ds](const std::vector<GoldDocument>& docs) {
    int total = 0;
    int emerging = 0;
    for (const GoldDocument& gd : docs) {
      for (const GoldMention& m : gd.mentions) {
        ++total;
        if (ds.world->entity(m.entity).emerging) ++emerging;
      }
    }
    return total == 0 ? 0.0 : static_cast<double>(emerging) / total;
  };
  double wiki = emerging_rate(ds.wiki_eval);
  double news = emerging_rate(ds.news);
  double wikia = emerging_rate(ds.wikia);
  EXPECT_LT(wiki, news);
  EXPECT_LT(news, wikia);
  EXPECT_GT(wikia, 0.5);
  EXPECT_LT(wiki, 0.3);
}

TEST(DatasetTest, StatsHavePriorsAndSignatures) {
  const auto& ds = Dataset();
  EXPECT_GT(ds.stats.document_count(), 100u);
  EXPECT_GT(ds.stats.pattern_count(), 10u);
  // A known repository entity should have a prior under its own name.
  const Entity& first = ds.repository->Get(0);
  EXPECT_GT(ds.stats.Prior(first.canonical_name, 0), 0.0);
}

TEST(EndToEndTest, WikiEvalPrecisionIsReasonable) {
  const auto& ds = Dataset();
  EngineConfig config;
  QkbflyEngine engine(ds.repository.get(), &ds.patterns, &ds.stats, config);
  FactJudge judge(&ds);
  PrecisionStats triples;
  PrecisionStats higher;
  int docs = 0;
  for (const GoldDocument& gd : ds.wiki_eval) {
    auto kb = engine.MakeKb();
    Canonicalizer::Merge(&kb, engine.ExtractDocument(gd.doc));
    for (const Fact& f : kb.facts()) {
      bool ok = judge.IsCorrectFact(f, gd, kb);
      (f.Arity() == 2 ? triples : higher).Add(ok);
    }
    if (++docs >= 15) break;
  }
  EXPECT_GT(triples.total, 20);
  EXPECT_GT(higher.total, 10);
  EXPECT_GT(triples.Precision(), 0.6);
  EXPECT_GT(higher.Precision(), 0.45);
}

TEST(EndToEndTest, NedLinkingPrecisionIsHigh) {
  const auto& ds = Dataset();
  EngineConfig config;
  QkbflyEngine engine(ds.repository.get(), &ds.patterns, &ds.stats, config);
  FactJudge judge(&ds);
  PrecisionStats links;
  int docs = 0;
  for (const GoldDocument& gd : ds.wiki_eval) {
    auto result = engine.ProcessDocument(gd.doc);
    for (const auto& a : result.densified.assignments) {
      if (!IsConfidentLink(a)) continue;
      const GraphNode& node = result.graph.node(a.mention);
      links.Add(judge.IsCorrectLink(node.sentence, node.text, a.entity, gd));
    }
    if (++docs >= 15) break;
  }
  EXPECT_GT(links.total, 50);
  EXPECT_GT(links.Precision(), 0.7);
}

TEST(MetricsTest, WaldInterval) {
  PrecisionStats stats;
  for (int i = 0; i < 150; ++i) stats.Add(i < 100);
  EXPECT_NEAR(stats.Precision(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats.WaldHalfWidth95(), 1.96 * std::sqrt((2.0 / 9.0) / 150), 1e-9);
}

TEST(MetricsTest, CohenKappaPerfectAgreement) {
  std::vector<std::pair<bool, bool>> j(50, {true, true});
  for (int i = 0; i < 30; ++i) j.emplace_back(false, false);
  EXPECT_NEAR(CohenKappa(j), 1.0, 1e-9);
}

TEST(MetricsTest, CohenKappaChanceAgreement) {
  // Independent coin flips: kappa near 0.
  std::vector<std::pair<bool, bool>> j = {
      {true, true}, {true, false}, {false, true}, {false, false}};
  EXPECT_NEAR(CohenKappa(j), 0.0, 1e-9);
}

TEST(MetricsTest, QaScoring) {
  auto s = ScoreAnswers({"Buenos Aires"}, {"buenos aires", "Rome"});
  EXPECT_NEAR(s.precision, 0.5, 1e-9);
  EXPECT_NEAR(s.recall, 1.0, 1e-9);
  EXPECT_NEAR(s.f1, 2 * 0.5 / 1.5, 1e-9);
  auto empty = ScoreAnswers({"X"}, {});
  EXPECT_EQ(empty.f1, 0.0);
}

TEST(MetricsTest, PrecisionCurveMonotonicCounts) {
  std::vector<bool> ranked = {true, true, false, true, false};
  auto curve = PrecisionCurve(ranked, 2);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve[0].extractions, 2);
  EXPECT_NEAR(curve[0].precision, 1.0, 1e-9);
  EXPECT_EQ(curve[2].extractions, 5);
  EXPECT_NEAR(curve[2].precision, 0.6, 1e-9);
}

}  // namespace
}  // namespace qkbfly
