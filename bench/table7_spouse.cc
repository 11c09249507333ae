// Reproduces Table 7 and Figure 5 of the paper: extracting instances of the
// spouse relation from the DEFIE-Wikipedia-style corpus with QKBfly
// (tau = 0.9) vs a DeepDive-style per-relation extractor, including the
// confidence-ranked precision-recall series of Figure 5.
#include <cstdio>

#include <algorithm>

#include "core/qkbfly.h"
#include "deepdive/spouse_extractor.h"
#include "eval/fact_matching.h"
#include "eval/metrics.h"
#include "synth/dataset.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace qkbfly {
namespace {

// Gold check: does the document license a marriage between the two mention
// surfaces? Surfaces are matched against the world aliases of the gold pair,
// which judges the extraction itself rather than any entity-linking step.
bool SurfaceDenotes(const SynthDataset& ds, const std::string& surface,
                    int world_entity) {
  for (const std::string& alias : ds.world->entity(world_entity).aliases) {
    if (EqualsIgnoreCase(surface, alias)) return true;
  }
  return false;
}

bool IsMarriedPair(const SynthDataset& ds, const GoldDocument& gd,
                   const std::string& surface1, const std::string& surface2) {
  for (const GoldExtraction& g : gd.extractions) {
    if (g.base_pattern != "marry" && g.base_pattern != "wed") continue;
    for (const GoldArgMatch& arg : g.core_args) {
      if (!arg.is_entity) continue;
      if ((SurfaceDenotes(ds, surface1, g.subject) &&
           SurfaceDenotes(ds, surface2, arg.entity)) ||
          (SurfaceDenotes(ds, surface2, g.subject) &&
           SurfaceDenotes(ds, surface1, arg.entity))) {
        return true;
      }
    }
  }
  return false;
}

void PrintSeries(const char* name, const std::vector<bool>& ranked,
                 double seconds) {
  std::printf("\n%s (total runtime %.2f s)\n", name, seconds);
  std::printf("  %-12s %s\n", "#Extractions", "Precision");
  for (int rank : {50, 100, 150, 200, 250}) {
    if (rank > static_cast<int>(ranked.size())) break;
    std::printf("  %8d     %8.2f\n", rank, PrecisionAtRank(ranked, rank));
  }
  std::printf("  (Figure 5 series: ");
  for (const PrCurvePoint& p : PrecisionCurve(ranked, 25)) {
    std::printf("%d:%.2f ", p.extractions, p.precision);
  }
  std::printf(")\n");
}

void Run() {
  DatasetConfig config;
  // A larger world: the spouse experiment needs hundreds of marriages so the
  // ranked precision series reaches the paper's 250-extraction mark.
  config.world.actors = 70;
  config.world.musicians = 40;
  config.world.footballers = 50;
  config.world.coaches = 12;
  config.world.business_people = 25;
  config.world.directors = 18;
  config.world.plain_persons = 60;
  config.world.films = 40;
  config.world.albums = 25;
  config.world.cities = 24;
  config.wiki_eval_articles = 250;
  auto ds = BuildDataset(config);
  FactJudge judge(ds.get());

  std::printf("Table 7 / Figure 5: spouse extraction on the DEFIE-Wikipedia-"
              "style corpus (%zu documents, tau = 0.9)\n",
              ds->wiki_eval.size());

  // ---- QKBfly: all-relation extraction, filtered to the marry synset -------
  {
    EngineConfig engine_config;
    engine_config.canon.confidence_threshold = 0.0;  // rank by confidence
    QkbflyEngine engine(ds->repository.get(), &ds->patterns, &ds->stats,
                        engine_config);
    auto marry = ds->patterns.Lookup("marry");
    auto marry_in = ds->patterns.Lookup("marry in");

    struct Scored {
      double confidence;
      bool correct;
    };
    std::vector<Scored> scored;
    WallTimer timer;
    for (const GoldDocument& gd : ds->wiki_eval) {
      auto kb = engine.MakeKb();
      Canonicalizer::Merge(&kb, engine.ExtractDocument(gd.doc));
      for (const Fact& f : kb.facts()) {
        if (f.relation != marry && f.relation != marry_in) continue;
        if (f.confidence < 0.9) continue;  // the paper's high-precision tau
        scored.push_back({f.confidence, judge.IsCorrectFact(f, gd, kb)});
      }
    }
    double seconds = timer.ElapsedSeconds();
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                return a.confidence > b.confidence;
              });
    std::vector<bool> ranked;
    for (const Scored& s : scored) ranked.push_back(s.correct);
    PrintSeries("QKBfly", ranked, seconds);
  }

  // ---- DeepDive ---------------------------------------------------------------
  {
    // Distant supervision from the snapshot's married couples.
    std::vector<std::pair<EntityId, EntityId>> married;
    auto marry_id = [&ds](const char* name) {
      for (size_t r = 0; r < RelationCatalog().size(); ++r) {
        if (RelationCatalog()[r].canonical == name) return static_cast<int>(r);
      }
      return -1;
    };
    int marry = marry_id("marry");
    int marry_in = marry_id("marry in");
    for (const WorldFact& f : ds->world->facts()) {
      if (f.relation != marry && f.relation != marry_in) continue;
      if (f.emerging) continue;  // only snapshot couples are known upfront
      auto s = ds->world_to_repo.find(f.subject);
      if (s == ds->world_to_repo.end()) continue;
      for (const WorldArg& arg : f.args) {
        if (!arg.is_entity) continue;
        auto o = ds->world_to_repo.find(arg.entity);
        if (o == ds->world_to_repo.end()) continue;
        married.emplace_back(s->second, o->second);
      }
    }

    DeepDiveSpouse deepdive(ds->repository.get(), &ds->stats);
    std::vector<const Document*> corpus;
    for (const GoldDocument& gd : ds->wiki_eval) corpus.push_back(&gd.doc);
    WallTimer timer;
    Status trained = deepdive.Train(corpus, married);
    if (!trained.ok()) {
      std::printf("DeepDive training failed: %s\n", trained.ToString().c_str());
      return;
    }

    struct Scored {
      double probability;
      bool correct;
    };
    std::vector<Scored> scored;
    for (const GoldDocument& gd : ds->wiki_eval) {
      for (const SpouseCandidate& c : deepdive.Extract(gd.doc)) {
        if (c.probability < 0.9) continue;  // same tau
        scored.push_back(
            {c.probability, IsMarriedPair(*ds, gd, c.surface1, c.surface2)});
      }
    }
    double seconds = timer.ElapsedSeconds();
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                return a.probability > b.probability;
              });
    std::vector<bool> ranked;
    for (const Scored& s : scored) ranked.push_back(s.correct);
    PrintSeries("DeepDive", ranked, seconds);
  }
}

}  // namespace
}  // namespace qkbfly

int main() {
  qkbfly::Run();
  return 0;
}
