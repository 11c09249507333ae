// Renders the semantic graph of the paper's Figure 2 example sentences:
// clause, noun-phrase, pronoun and entity nodes with depends / relation /
// sameAs / means edges, before and after densification.
#include <cstdio>
#include <utility>

#include "core/qkbfly.h"
#include "synth/dataset.h"

using namespace qkbfly;

int main() {
  // A small hand-built repository in the spirit of Figure 2.
  TypeSystem types = TypeSystem::BuildDefault();
  EntityRepository repo(&types);
  auto type = [&types](const char* name) { return *types.Find(name); };
  repo.AddEntity("Brad Pitt", {"Pitt", "Brad"}, {type("ACTOR")}, Gender::kMale);
  repo.AddEntity("ONE Campaign", {}, {type("CHARITY")});
  repo.AddEntity("Daniel Pearl Foundation", {}, {type("FOUNDATION")});

  PatternRepository patterns;
  patterns.AddSynset("support", {"back"});
  patterns.AddSynset("donate to", {"give to"});
  patterns.AddSynset("be", {});

  DocumentStore background;
  Document bg;
  bg.id = "bg:Brad Pitt";
  bg.title = "Brad Pitt";
  bg.text = "Brad Pitt is an American actor. Pitt supported the ONE Campaign.";
  bg.anchors = {{0, "Brad Pitt", 0}, {1, "Pitt", 0}, {1, "ONE Campaign", 1}};
  (void)background.Add(std::move(bg));
  NlpPipeline pipeline(&repo);
  StatisticsBuilder builder(&repo, &types);
  BackgroundStats stats = builder.Build(background, pipeline);

  // The Figure 2 input sentences.
  Document doc;
  doc.id = "figure2";
  doc.text = "Brad Pitt is an actor. He supports the ONE Campaign. "
             "Pitt donated $100,000 to the Daniel Pearl Foundation.";

  EngineConfig config;
  QkbflyEngine engine(&repo, &patterns, &stats, config);
  DocumentResult result;
  DocumentFacts extracted = engine.ExtractDocument(doc, {}, &result);

  std::printf("=== semantic graph (after densification; pruned edges marked) "
              "===\n%s\n", result.graph.ToString().c_str());

  OnTheFlyKb kb = engine.MakeKb();
  Canonicalizer::Merge(&kb, std::move(extracted));
  std::printf("=== canonicalized facts ===\n");
  for (const Fact& fact : kb.facts()) {
    std::printf("%s\n", kb.FactToString(fact).c_str());
  }
  return 0;
}
