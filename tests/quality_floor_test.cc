// Extraction-quality floors at smoke size: Table 3 triple precision and
// extraction counts (joint, pipeline, noun-only), Table 4 link precision
// (joint, pipeline) and Table 9 macro P/R/F1 (QKBfly), all on the
// 12-article dataset densify_test and densify_golden_test use. The golden
// digests catch any change; these floors say whether a changed KB is still
// as good. Each floor is a measured value minus a stated margin:
//  - a precision floor is the value minus its Wald 95% half-width;
//  - an extraction-count floor is 95% of the count, rounded down;
//  - a QA floor is the value minus 0.05 (one question in twenty).
// A change that drops below a floor is a quality regression, whatever its
// speed.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/qkbfly.h"
#include "eval/fact_matching.h"
#include "eval/metrics.h"
#include "qa/qa_system.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

const SynthDataset& Dataset() {
  static const SynthDataset* ds = [] {
    DatasetConfig config;
    config.wiki_eval_articles = 12;
    return BuildDataset(config).release();
  }();
  return *ds;
}

// Table 3: every document's facts judged against its own gold extractions.
PrecisionStats TriplePrecision(InferenceMode mode) {
  const SynthDataset& ds = Dataset();
  FactJudge judge(&ds);
  EngineConfig config;
  config.mode = mode;
  QkbflyEngine engine(ds.repository.get(), &ds.patterns, &ds.stats, config);
  PrecisionStats triples;
  for (const GoldDocument& gd : ds.wiki_eval) {
    const DocumentResult result = engine.ProcessDocument(gd.doc);
    OnTheFlyKb kb = engine.MakeKb();
    engine.PopulateKb(&kb, result);
    for (const Fact& f : kb.facts()) {
      if (f.Arity() == 2) triples.Add(judge.IsCorrectFact(f, gd, kb));
    }
  }
  std::printf("%s triples: precision %.4f +- %.4f over %d\n",
              InferenceModeName(mode), triples.Precision(),
              triples.WaldHalfWidth95(), triples.total);
  return triples;
}

// Table 4: confident mention -> entity links.
PrecisionStats LinkPrecision(InferenceMode mode) {
  const SynthDataset& ds = Dataset();
  FactJudge judge(&ds);
  EngineConfig config;
  config.mode = mode;
  QkbflyEngine engine(ds.repository.get(), &ds.patterns, &ds.stats, config);
  PrecisionStats links;
  for (const GoldDocument& gd : ds.wiki_eval) {
    const DocumentResult result = engine.ProcessDocument(gd.doc);
    for (const DensifyResult::Assignment& a : result.densified.assignments) {
      if (!IsConfidentLink(a)) continue;
      const GraphNode& node = result.graph.node(a.mention);
      links.Add(judge.IsCorrectLink(node.sentence, node.text, a.entity, gd));
    }
  }
  std::printf("%s links: precision %.4f +- %.4f over %d\n",
              InferenceModeName(mode), links.Precision(),
              links.WaldHalfWidth95(), links.total);
  return links;
}

struct Floor {
  double precision;
  int extractions;
};

void ExpectAtLeast(const PrecisionStats& got, Floor floor) {
  EXPECT_GE(got.Precision(), floor.precision);
  EXPECT_GE(got.total, floor.extractions);
}

TEST(QualityFloorTest, Table3Joint) {
  // Measured 0.8636 +- 0.0828 over 66.
  ExpectAtLeast(TriplePrecision(InferenceMode::kJoint), {0.8636 - 0.0828, 62});
}

TEST(QualityFloorTest, Table3Pipeline) {
  // Measured 0.8571 +- 0.0864 over 63.
  ExpectAtLeast(TriplePrecision(InferenceMode::kPipeline),
                {0.8571 - 0.0864, 59});
}

TEST(QualityFloorTest, Table3NounOnly) {
  // Measured 0.9038 +- 0.0801 over 52.
  ExpectAtLeast(TriplePrecision(InferenceMode::kNounOnly),
                {0.9038 - 0.0801, 49});
}

TEST(QualityFloorTest, Table4Joint) {
  // Measured 0.9333 +- 0.0421 over 135.
  ExpectAtLeast(LinkPrecision(InferenceMode::kJoint), {0.9333 - 0.0421, 128});
}

TEST(QualityFloorTest, Table4Pipeline) {
  // Measured 0.8993 +- 0.0500 over 139.
  ExpectAtLeast(LinkPrecision(InferenceMode::kPipeline),
                {0.8993 - 0.0500, 132});
}

// Table 9: the full QKBfly QA mode over the 12 articles plus the news
// corpus, with the bench's train/test question counts (the generator finds
// 52 answerable post-snapshot questions in this corpus).
TEST(QualityFloorTest, Table9Qa) {
  const SynthDataset& ds = Dataset();
  DocumentStore wiki;
  DocumentStore news;
  std::vector<const GoldDocument*> corpus;
  for (const GoldDocument& gd : ds.wiki_eval) {
    (void)wiki.Add(gd.doc);
    corpus.push_back(&gd);
  }
  for (const GoldDocument& gd : ds.news) {
    (void)news.Add(gd.doc);
    corpus.push_back(&gd);
  }
  std::vector<QaQuestion> train =
      GenerateQuestions(ds, corpus, 120, /*seed=*/11, /*emerging_only=*/false);
  const std::vector<QaQuestion> test =
      GenerateQuestions(ds, corpus, 100, /*seed=*/77, /*emerging_only=*/true);
  std::set<std::string> test_texts;
  for (const QaQuestion& q : test) test_texts.insert(q.text);
  std::vector<QaQuestion> train_clean;
  for (QaQuestion& q : train) {
    if (test_texts.count(q.text) == 0) train_clean.push_back(std::move(q));
  }
  std::vector<QaSystem::StaticFact> snapshot;
  for (const WorldFact& f : ds.world->facts()) {
    if (f.emerging) continue;
    QaSystem::StaticFact sf;
    sf.subject = ds.world->entity(f.subject).name;
    sf.relation = RelationCatalog()[static_cast<size_t>(f.relation)].canonical;
    for (const WorldArg& a : f.args) {
      sf.args.push_back(a.is_entity ? ds.world->entity(a.entity).name
                                    : a.normalized);
    }
    snapshot.push_back(std::move(sf));
  }

  QaSystem system(&ds, &wiki, &news, snapshot, QaMode::kFull);
  ASSERT_TRUE(system.Train(train_clean).ok());
  std::vector<QaScore> scores;
  for (const QaQuestion& q : test) {
    scores.push_back(ScoreAnswers(q.gold_answers, system.Answer(q)));
  }
  const QaScore avg = MacroAverage(scores);
  std::printf("QA over %zu questions: P %.4f R %.4f F1 %.4f\n", test.size(),
              avg.precision, avg.recall, avg.f1);
  // Measured P 0.6154, R 0.5929, F1 0.5994 over 52 questions.
  EXPECT_EQ(test.size(), 52u);
  EXPECT_GE(avg.precision, 0.6154 - 0.05);
  EXPECT_GE(avg.recall, 0.5929 - 0.05);
  EXPECT_GE(avg.f1, 0.5994 - 0.05);
}

}  // namespace
}  // namespace qkbfly
