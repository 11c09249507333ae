// Ablation: the confidence threshold tau. Sweeps tau and reports the
// precision / extraction-count trade-off around the paper's two operating
// points (tau = 0.5 for KB construction, tau = 0.9 for precision-first IE).
#include <cstdio>

#include "core/qkbfly.h"
#include "eval/fact_matching.h"
#include "eval/metrics.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

void Run() {
  DatasetConfig config;
  config.wiki_eval_articles = 40;
  auto ds = BuildDataset(config);
  FactJudge judge(ds.get());

  // Extract once with tau = 0 and re-threshold offline.
  EngineConfig engine_config;
  engine_config.canon.confidence_threshold = 0.0;
  QkbflyEngine engine(ds->repository.get(), &ds->patterns, &ds->stats,
                      engine_config);

  struct Judged {
    double confidence;
    bool correct;
  };
  std::vector<Judged> facts;
  for (const GoldDocument& gd : ds->wiki_eval) {
    auto kb = engine.MakeKb();
    Canonicalizer::Merge(&kb, engine.ExtractDocument(gd.doc));
    for (const Fact& f : kb.facts()) {
      facts.push_back({f.confidence, judge.IsCorrectFact(f, gd, kb)});
    }
  }

  std::printf("Ablation: confidence threshold tau (wiki corpus, %zu facts "
              "before thresholding)\n\n", facts.size());
  std::printf("%6s %12s %12s\n", "tau", "precision", "#facts");
  for (double tau : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    PrecisionStats stats;
    for (const Judged& j : facts) {
      if (j.confidence >= tau) stats.Add(j.correct);
    }
    std::printf("%6.1f %12.3f %12d%s\n", tau, stats.Precision(), stats.total,
                tau == 0.5 ? "   <- paper's KB-construction tau" :
                tau == 0.9 ? "   <- paper's precision-first tau" : "");
  }
}

}  // namespace
}  // namespace qkbfly

int main() {
  qkbfly::Run();
  return 0;
}
