// Focused tests of Stage 3: fact assembly, thresholds, triples-only mode,
// emerging-entity clustering, and the Extract/Merge split (document-local
// emerging ids).
#include "canon/canonicalizer.h"

#include <gtest/gtest.h>

#include "densify/greedy_densifier.h"
#include "graph/graph_builder.h"
#include "nlp/pipeline.h"
#include "parser/malt_parser.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

const SynthDataset& Dataset() {
  static const SynthDataset* ds = [] {
    DatasetConfig config;
    config.wiki_eval_articles = 10;
    return BuildDataset(config).release();
  }();
  return *ds;
}

struct Pipeline {
  AnnotatedDocument annotated;
  SemanticGraph graph;
  DensifyResult densified;
};

Pipeline RunStages12(const std::string& text) {
  const auto& ds = Dataset();
  NlpPipeline nlp(ds.repository.get());
  Pipeline p;
  p.annotated = nlp.Annotate("t", "", text);
  GraphBuilder builder(ds.repository.get(), std::make_unique<MaltLikeParser>(),
                       GraphBuilder::Options());
  p.graph = builder.Build(p.annotated);
  GreedyDensifier densifier(&ds.stats, ds.repository.get(), DensifyParams());
  p.densified = densifier.Densify(&p.graph, p.annotated);
  return p;
}

/// Stage 3 of one document into `kb`: Extract, then Merge.
void Canonicalize(const Canonicalizer::Options& options, const Pipeline& p,
                  OnTheFlyKb* kb) {
  const auto& ds = Dataset();
  Canonicalizer canonicalizer(ds.repository.get(), &ds.patterns, options);
  Canonicalizer::Merge(
      kb, canonicalizer.Extract(p.graph, p.densified, p.annotated));
}

TEST(CanonicalizerTest, ThresholdSuppressesLowConfidenceFacts) {
  const auto& ds = Dataset();
  // A maximally ambiguous surname-only mention: confidence is split.
  std::string shared_surname;
  for (const WorldEntity& e : ds.world->entities()) {
    if (e.aliases.size() < 2) continue;
    if (ds.repository->CandidatesForAlias(e.aliases[1]).size() >= 3) {
      shared_surname = e.aliases[1];
      break;
    }
  }
  if (shared_surname.empty()) GTEST_SKIP() << "no 3-way ambiguous alias";
  Pipeline p = RunStages12(shared_surname + " married Anna Lewis.");

  Canonicalizer::Options strict;
  strict.confidence_threshold = 0.99;
  OnTheFlyKb strict_kb(ds.repository.get(), &ds.patterns);
  Canonicalize(strict, p, &strict_kb);

  Canonicalizer::Options lax;
  lax.confidence_threshold = 0.0;
  OnTheFlyKb lax_kb(ds.repository.get(), &ds.patterns);
  Canonicalize(lax, p, &lax_kb);

  EXPECT_LE(strict_kb.size(), lax_kb.size());
}

TEST(CanonicalizerTest, TriplesOnlySplitsHigherArity) {
  const auto& ds = Dataset();
  const Entity& a = ds.repository->Get(0);
  Pipeline p = RunStages12(a.canonical_name + " married Anna Lewis in 2012.");

  Canonicalizer::Options nary;
  nary.confidence_threshold = 0.0;
  OnTheFlyKb nary_kb(ds.repository.get(), &ds.patterns);
  Canonicalize(nary, p, &nary_kb);

  Pipeline p2 = RunStages12(a.canonical_name + " married Anna Lewis in 2012.");
  Canonicalizer::Options triples;
  triples.confidence_threshold = 0.0;
  triples.triples_only = true;
  OnTheFlyKb triples_kb(ds.repository.get(), &ds.patterns);
  Canonicalize(triples, p2, &triples_kb);

  EXPECT_GE(nary_kb.higher_arity_count(), 1u);
  EXPECT_EQ(triples_kb.higher_arity_count(), 0u);
  EXPECT_GE(triples_kb.triple_count(), nary_kb.triple_count());
}

TEST(CanonicalizerTest, CoreferentMentionsShareOneEmergingEntity) {
  const auto& ds = Dataset();
  Pipeline p = RunStages12(
      "Zanthor Vexwing won an award. Zanthor Vexwing married Anna Lewis.");
  Canonicalizer::Options options;
  options.confidence_threshold = 0.0;
  OnTheFlyKb kb(ds.repository.get(), &ds.patterns);
  Canonicalize(options, p, &kb);
  // The two "Zanthor Vexwing" mentions form one co-reference cluster and
  // hence one emerging entity.
  int zanthors = 0;
  for (const EmergingEntity& e : kb.emerging_entities()) {
    if (e.representative == "Zanthor Vexwing") ++zanthors;
  }
  EXPECT_EQ(zanthors, 1);
}

TEST(CanonicalizerTest, FactProvenanceRecorded) {
  const auto& ds = Dataset();
  const Entity& a = ds.repository->Get(0);
  Pipeline p = RunStages12(a.canonical_name + " married Anna Lewis.");
  Canonicalizer::Options options;
  options.confidence_threshold = 0.0;
  OnTheFlyKb kb(ds.repository.get(), &ds.patterns);
  Canonicalize(options, p, &kb);
  ASSERT_FALSE(kb.facts().empty());
  for (const Fact& f : kb.facts()) {
    EXPECT_EQ(f.doc_id, "t");
    EXPECT_GE(f.sentence, 0);
  }
}

TEST(CanonicalizerTest, MergeRemapsDocumentLocalEmergingIds) {
  const auto& ds = Dataset();
  Pipeline p = RunStages12(
      "Zanthor Vexwing married Quellin Dravosk. Quellin Dravosk won an award.");
  Canonicalizer::Options options;
  options.confidence_threshold = 0.0;
  Canonicalizer canonicalizer(ds.repository.get(), &ds.patterns, options);
  DocumentFacts facts =
      canonicalizer.Extract(p.graph, p.densified, p.annotated);
  ASSERT_GE(facts.clusters.size(), 2u);
  for (size_t i = 0; i < facts.clusters.size(); ++i) {
    EXPECT_EQ(facts.clusters[i].id, i);  // document-local, registration order
  }

  // Merging the same document twice registers its clusters twice, and the
  // second copy's facts point at the second copy's ids.
  OnTheFlyKb kb(ds.repository.get(), &ds.patterns);
  Canonicalizer::Merge(&kb, facts);
  Canonicalizer::Merge(&kb, facts);
  const size_t n = facts.clusters.size();
  ASSERT_EQ(kb.emerging_entities().size(), 2 * n);
  for (size_t i = 0; i < 2 * n; ++i) {
    EXPECT_EQ(kb.emerging_entities()[i].representative,
              facts.clusters[i % n].representative);
  }
  bool saw_second_copy = false;
  for (const Fact& f : kb.facts()) {
    for (const FactArg* arg : {&f.subject, &f.args.front()}) {
      if (arg->kind != FactArg::Kind::kEmerging) continue;
      EXPECT_EQ(kb.emerging(arg->emerging).representative, arg->surface);
      if (arg->emerging >= n) saw_second_copy = true;
    }
  }
  EXPECT_TRUE(saw_second_copy);
}

}  // namespace
}  // namespace qkbfly
