// Reproduces Table 6 of the paper: the greedy densest-subgraph algorithm vs
// the exact ILP (Appendix A) for joint NED + CR, on three corpora with
// increasing emerging-entity rates (DEFIE-Wikipedia-like, News, Wikia).
// Reports precision, extraction counts, per-document runtime and the
// out-of-repository entity shares the paper quotes (13% / 24% / 71%).
#include <cstdio>

#include "core/qkbfly.h"
#include "eval/fact_matching.h"
#include "eval/metrics.h"
#include "util/timer.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

void RunCorpus(const SynthDataset& ds, const char* corpus_name,
               const std::vector<GoldDocument>& docs) {
  FactJudge judge(&ds);

  std::printf("%s dataset (%zu documents)\n", corpus_name, docs.size());
  std::printf("  %-12s %-16s %9s %16s\n", "Method", "Precision", "#Extract.",
              "Avg. ms/doc");

  double emerging_mentions = 0;
  double total_mentions = 0;
  for (const GoldDocument& gd : docs) {
    for (const GoldMention& m : gd.mentions) {
      ++total_mentions;
      if (ds.world->entity(m.entity).emerging) ++emerging_mentions;
    }
  }

  for (InferenceMode mode : {InferenceMode::kJoint, InferenceMode::kIlp}) {
    EngineConfig config;
    config.mode = mode;
    QkbflyEngine engine(ds.repository.get(), &ds.patterns, &ds.stats, config);
    PrecisionStats facts;
    TimingStats timing;
    for (const GoldDocument& gd : docs) {
      DocumentResult result;
      auto kb = engine.MakeKb();
      Canonicalizer::Merge(&kb, engine.ExtractDocument(gd.doc, {}, &result));
      timing.Add(result.seconds);
      for (const Fact& f : kb.facts()) {
        facts.Add(judge.IsCorrectFact(f, gd, kb));
      }
    }
    std::printf("  %-12s %5.2f +- %4.2f %9d %10.2f +- %.2f\n",
                mode == InferenceMode::kJoint ? "QKBfly" : "QKBfly-ilp",
                facts.Precision(), facts.WaldHalfWidth95(), facts.total,
                timing.Mean() * 1e3, timing.HalfWidth95() * 1e3);
  }
  std::printf("  out-of-repository entity mentions: %.0f%%\n\n",
              total_mentions > 0 ? 100.0 * emerging_mentions / total_mentions
                                 : 0.0);
}

void Run() {
  DatasetConfig config;
  config.wiki_eval_articles = 40;
  config.news_docs = 20;
  config.wikia_pages = 10;
  auto ds = BuildDataset(config);

  std::printf("Table 6: greedy vs ILP joint NED + CR\n\n");
  RunCorpus(*ds, "DEFIE-Wikipedia", ds->wiki_eval);
  RunCorpus(*ds, "News", ds->news);
  RunCorpus(*ds, "Wikia", ds->wikia);
}

}  // namespace
}  // namespace qkbfly

int main() {
  qkbfly::Run();
  return 0;
}
