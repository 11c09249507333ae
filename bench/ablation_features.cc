// Ablation: which Section 4 features carry the joint model? Toggles the
// four alpha weights one at a time and reports NED precision and end-to-end
// fact precision on the wiki corpus (extends the paper's own joint-vs-
// pipeline-vs-noun ablation of Table 3).
#include <cstdio>
#include <utility>

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

  struct Config {
    const char* name;
    DensifyParams params;
  };
  DensifyParams defaults;
  std::vector<Config> configs;
  configs.push_back({"full model", defaults});
  {
    DensifyParams p = defaults;
    p.alpha1 = 0;
    configs.push_back({"- prior (a1=0)", p});
  }
  {
    DensifyParams p = defaults;
    p.alpha2 = 0;
    configs.push_back({"- context sim (a2=0)", p});
  }
  {
    DensifyParams p = defaults;
    p.alpha3 = 0;
    configs.push_back({"- coherence (a3=0)", p});
  }
  {
    DensifyParams p = defaults;
    p.alpha4 = 0;
    configs.push_back({"- type signature (a4=0)", p});
  }

  std::printf("Ablation: Section 4 feature functions (wiki corpus, "
              "%zu documents)\n\n", ds->wiki_eval.size());
  std::printf("%-24s %-16s %-16s\n", "Configuration", "NED precision",
              "Fact precision");

  for (const Config& c : configs) {
    EngineConfig engine_config;
    engine_config.params = c.params;
    QkbflyEngine engine(ds->repository.get(), &ds->patterns, &ds->stats,
                        engine_config);
    PrecisionStats links;
    PrecisionStats facts;
    for (const GoldDocument& gd : ds->wiki_eval) {
      DocumentResult result;
      DocumentFacts extracted = engine.ExtractDocument(gd.doc, {}, &result);
      for (const auto& a : result.densified.assignments) {
        if (!IsConfidentLink(a)) continue;
        const GraphNode& node = result.graph.node(a.mention);
        links.Add(judge.IsCorrectLink(node.sentence, node.text, a.entity, gd));
      }
      auto kb = engine.MakeKb();
      Canonicalizer::Merge(&kb, std::move(extracted));
      for (const Fact& f : kb.facts()) {
        facts.Add(judge.IsCorrectFact(f, gd, kb));
      }
    }
    std::printf("%-24s %5.3f (n=%4d)   %5.3f (n=%4d)\n", c.name,
                links.Precision(), links.total, facts.Precision(), facts.total);
  }
}

}  // namespace
}  // namespace qkbfly

int main() {
  qkbfly::Run();
  return 0;
}
