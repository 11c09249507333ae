// Single-core hot-path bench: per-stage throughput for the cold document
// path (annotate tokens/s, gazetteer positions/s, graph-build nodes+edges/s,
// densify edges-removed/s) plus cold end-to-end p50/p95. Writes the
// machine-readable BENCH_hotpath.json; `--smoke` runs a tiny corpus and
// schema-validates the output (used by the bench-smoke ctest label).
//
// The committed BENCH_hotpath_baseline.json was produced by this binary
// before the trie-gazetteer / interned-token / heap-densifier rewrite, so
// the before/after stage throughputs are recorded side by side in the repo.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/qkbfly.h"
#include "graph/graph_builder.h"
#include "obs/trace.h"
#include "parser/router.h"
#include "synth/dataset.h"
#include "util/bench_report.h"
#include "util/timer.h"

namespace qkbfly {
namespace {

struct StageResult {
  double wall_s = 0.0;
  uint64_t items = 0;
  uint64_t facts_accumulator = 0;  ///< Secondary counter (gazetteer matches).
  TimingStats per_doc;
};

BenchReport::StageFields ToFields(const StageResult& r) {
  BenchReport::StageFields fields;
  fields.items = r.items;
  fields.rate = r.wall_s > 0.0 ? static_cast<double>(r.items) / r.wall_s : 0.0;
  fields.p50_ms = r.per_doc.Percentile(0.50) * 1e3;
  fields.p95_ms = r.per_doc.Percentile(0.95) * 1e3;
  return fields;
}

void Print(const char* name, const StageResult& r, const char* unit) {
  std::printf("%-18s %9.3f s  %10llu %-14s %12.0f /s  p50 %8.3f ms  "
              "p95 %8.3f ms\n",
              name, r.wall_s, static_cast<unsigned long long>(r.items), unit,
              r.wall_s > 0.0 ? static_cast<double>(r.items) / r.wall_s : 0.0,
              r.per_doc.Percentile(0.50) * 1e3,
              r.per_doc.Percentile(0.95) * 1e3);
}

// Looks up the densify-stage p50 (milliseconds) by record name in a
// BENCH_hotpath.json-shaped report.
bool ReadBaselineDensifyP50(const std::string& path, double* p50_ms) {
  std::vector<BenchReport::Entry> entries;
  std::string error;
  if (!BenchReport::ReadJsonFile(path, &entries, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  for (const BenchReport::Entry& entry : entries) {
    if (entry.name == "hotpath/densify" && entry.has_stage) {
      *p50_ms = entry.stage.p50_ms;
      return *p50_ms > 0.0;
    }
  }
  return false;
}

int Run(bool smoke, const char* baseline_path) {
  DatasetConfig config;
  config.wiki_eval_articles = smoke ? 6 : 60;
  config.news_docs = smoke ? 4 : 40;
  auto ds = BuildDataset(config);

  std::vector<const Document*> docs;
  for (const GoldDocument& gd : ds->wiki_eval) docs.push_back(&gd.doc);
  for (const GoldDocument& gd : ds->news) docs.push_back(&gd.doc);
  const int reps = smoke ? 1 : 20;

  std::printf("Hot-path bench: %zu documents, %d repetitions%s\n\n",
              docs.size(), reps, smoke ? " (smoke)" : "");

  NlpPipeline nlp(ds->repository.get());
  BenchReport report;

  // --- annotate: tokenize + POS + time + NER + chunk ------------------------
  StageResult annotate;
  std::vector<AnnotatedDocument> annotated;
  annotated.reserve(docs.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (const Document* doc : docs) {
      WallTimer t;
      AnnotatedDocument ad = nlp.Annotate(doc->id, doc->title, doc->text);
      annotate.per_doc.Add(t.ElapsedSeconds());
      annotate.wall_s += t.ElapsedSeconds();
      for (const AnnotatedSentence& s : ad.sentences) {
        annotate.items += s.tokens.size();
      }
      if (rep == 0) annotated.push_back(std::move(ad));
    }
  }
  Print("annotate", annotate, "tokens");
  report.Add("hotpath/annotate", static_cast<int>(docs.size()) * reps, 1,
             annotate.wall_s, annotate.items, ToFields(annotate));

  // --- gazetteer: LongestMatchAt at every token position --------------------
  {
    StageResult gaz;
    const int gaz_reps = reps;
    for (int rep = 0; rep < gaz_reps; ++rep) {
      for (const AnnotatedDocument& ad : annotated) {
        WallTimer t;
        uint64_t matches = 0;
        uint64_t positions = 0;
        for (const AnnotatedSentence& s : ad.sentences) {
          const int n = static_cast<int>(s.tokens.size());
          for (int i = 0; i < n; ++i) {
            NerType type = NerType::kNone;
            if (ds->repository->LongestMatchAt(s.tokens, i, &type) > 0) {
              ++matches;
            }
            ++positions;
          }
        }
        gaz.per_doc.Add(t.ElapsedSeconds());
        gaz.wall_s += t.ElapsedSeconds();
        gaz.items += positions;
        gaz.facts_accumulator += matches;
      }
    }
    Print("gazetteer", gaz, "positions");
    report.Add("hotpath/gazetteer", static_cast<int>(docs.size()) * gaz_reps,
               1, gaz.wall_s, gaz.facts_accumulator, ToFields(gaz));
  }

  // --- dependency parse: linear vs MST vs adaptive routing ------------------
  // Same annotated sentences through each backend, so the per-mode rates are
  // directly comparable. The adaptive row should land between the two pure
  // modes (bench/parser_frontier sweeps the threshold; this is the fixed
  // default-threshold point).
  {
    const int parse_reps = smoke ? 1 : 6;  // MST is O(n^3); keep reps modest.
    const ParserMode modes[] = {ParserMode::kLinear, ParserMode::kMst,
                                ParserMode::kAdaptive};
    for (ParserMode mode : modes) {
      std::unique_ptr<DependencyParser> parser = MakeParser(mode);
      StageResult parse;
      for (int rep = 0; rep < parse_reps; ++rep) {
        for (const AnnotatedDocument& ad : annotated) {
          WallTimer t;
          uint64_t arcs = 0;
          for (const AnnotatedSentence& s : ad.sentences) {
            DependencyParse dp = parser->Parse(s.tokens);
            arcs += dp.arcs.size();
            parse.items += s.tokens.size();
          }
          parse.per_doc.Add(t.ElapsedSeconds());
          parse.wall_s += t.ElapsedSeconds();
          parse.facts_accumulator += arcs;
        }
      }
      char label[48];
      std::snprintf(label, sizeof(label), "parse-%s", ParserModeName(mode));
      Print(label, parse, "tokens");
      std::snprintf(label, sizeof(label), "hotpath/parse_%s",
                    ParserModeName(mode));
      report.Add(label, static_cast<int>(docs.size()) * parse_reps, 1,
                 parse.wall_s, parse.facts_accumulator, ToFields(parse));
    }
  }

  // --- graph build ----------------------------------------------------------
  GraphBuilder builder(ds->repository.get(),
                       MakeParser(ParserMode::kLinear),
                       GraphBuilder::Options());
  StageResult graph_stage;
  std::vector<SemanticGraph> graphs;
  graphs.reserve(annotated.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (const AnnotatedDocument& ad : annotated) {
      WallTimer t;
      SemanticGraph g = builder.Build(ad);
      graph_stage.per_doc.Add(t.ElapsedSeconds());
      graph_stage.wall_s += t.ElapsedSeconds();
      graph_stage.items += g.node_count() + g.edge_count();
      if (rep == 0) graphs.push_back(std::move(g));
    }
  }
  Print("graph-build", graph_stage, "nodes+edges");
  report.Add("hotpath/graph", static_cast<int>(docs.size()) * reps, 1,
             graph_stage.wall_s, graph_stage.items, ToFields(graph_stage));

  // --- densify --------------------------------------------------------------
  GreedyDensifier densifier(&ds->stats, ds->repository.get(), DensifyParams());
  StageResult densify;
  const int densify_reps = smoke ? 1 : 6;
  for (int rep = 0; rep < densify_reps; ++rep) {
    std::vector<SemanticGraph> copies = graphs;  // densify mutates the graph
    for (size_t i = 0; i < copies.size(); ++i) {
      WallTimer t;
      DensifyResult r = densifier.Densify(&copies[i], annotated[i]);
      densify.per_doc.Add(t.ElapsedSeconds());
      densify.wall_s += t.ElapsedSeconds();
      densify.items += static_cast<uint64_t>(r.edges_removed);
    }
  }
  Print("densify", densify, "edges-removed");
  report.Add("hotpath/densify", static_cast<int>(docs.size()) * densify_reps,
             1, densify.wall_s, densify.items, ToFields(densify));

  // --- densify regression gate against the committed baseline ---------------
  // Smoke runs print the comparison but never fail on it: the tiny corpus
  // under parallel ctest makes the median too noisy for a hard gate. Full
  // runs (the ones that regenerate the committed BENCH_hotpath.json) fail
  // when the densify p50 regresses more than 10% past the baseline file.
  bool densify_regressed = false;
  if (baseline_path != nullptr) {
    double baseline_p50 = 0.0;
    if (!ReadBaselineDensifyP50(baseline_path, &baseline_p50)) {
      std::fprintf(stderr, "FAILED to read densify p50 from %s\n",
                   baseline_path);
      return 1;
    }
    const double current_p50 = densify.per_doc.Percentile(0.50) * 1e3;
    const double budget = baseline_p50 * 1.10;
    std::printf("\ndensify p50 vs baseline: %.4f ms vs %.4f ms (%.2fx, "
                "budget %.4f ms)%s\n",
                current_p50, baseline_p50,
                current_p50 > 0.0 ? baseline_p50 / current_p50 : 0.0, budget,
                smoke ? " [report-only in smoke]" : "");
    densify_regressed = current_p50 > budget;
    if (densify_regressed && !smoke) {
      std::fprintf(stderr,
                   "DENSIFY P50 REGRESSION: %.4f ms > %.4f ms (baseline "
                   "%.4f ms + 10%%)\n",
                   current_p50, budget, baseline_p50);
      // Fall through so the report still gets written; fail at the end.
    }
  }

  // --- cold end-to-end, tracing off vs on -----------------------------------
  // Same workload with and without a live Trace attached, interleaved per
  // repetition so scheduler drift on shared cores hits both variants
  // equally; the tracing overhead (cold vs cold_traced p50) is
  // regression-guarded on full runs.
  EngineConfig engine_config;
  QkbflyEngine engine(ds->repository.get(), &ds->patterns, &ds->stats,
                      engine_config);
  StageResult cold;
  StageResult cold_traced;
  size_t spans_captured = 0;
  const int cold_reps = smoke ? 1 : 5;
  for (int rep = 0; rep < cold_reps; ++rep) {
    for (const Document* doc : docs) {
      WallTimer t;
      DocumentResult r = engine.ProcessDocument(*doc);
      cold.per_doc.Add(t.ElapsedSeconds());
      cold.wall_s += t.ElapsedSeconds();
      cold.items += r.densified.assignments.size();
    }
    for (const Document* doc : docs) {
      obs::Trace trace("bench_document");
      WallTimer t;
      DocumentResult r =
          engine.ProcessDocument(*doc, {&trace, trace.root()});
      cold_traced.per_doc.Add(t.ElapsedSeconds());
      cold_traced.wall_s += t.ElapsedSeconds();
      cold_traced.items += r.densified.assignments.size();
      trace.Finish();
      spans_captured += trace.Snapshot().size();
    }
  }
  Print("cold-document", cold, "assignments");
  report.Add("hotpath/cold", static_cast<int>(docs.size()) * cold_reps, 1,
             cold.wall_s, cold.items, ToFields(cold));
  Print("cold-traced", cold_traced, "assignments");
  report.Add("hotpath/cold_traced",
             static_cast<int>(docs.size()) * cold_reps, 1,
             cold_traced.wall_s, cold_traced.items, ToFields(cold_traced));

  double p50_off = cold.per_doc.Percentile(0.50);
  double p50_on = cold_traced.per_doc.Percentile(0.50);
  double overhead = p50_off > 0.0 ? (p50_on - p50_off) / p50_off : 0.0;
  std::printf("\ntracing overhead: cold p50 %.3f ms -> %.3f ms (%+.1f%%), "
              "%zu spans captured\n",
              p50_off * 1e3, p50_on * 1e3, overhead * 100.0, spans_captured);
  // The budget is 5%, enforced only on full runs (the ones that write the
  // committed BENCH_hotpath.json). Smoke runs a tiny corpus, often under
  // parallel ctest on shared CI cores, where one descheduling blows the
  // per-document median — there the overhead line is report-only.
  const double overhead_budget = 0.05;
  if (!smoke && overhead > overhead_budget) {
    std::fprintf(stderr,
                 "TRACING OVERHEAD REGRESSION: %.1f%% > %.0f%% budget\n",
                 overhead * 100.0, overhead_budget * 100.0);
    return 1;
  }

  const char* path = "BENCH_hotpath.json";
  if (!report.WriteJson(path)) {
    std::fprintf(stderr, "FAILED to write %s\n", path);
    return 1;
  }
  std::printf("\nWrote %s\n", path);

  std::vector<BenchReport::Entry> written;
  std::string error;
  if (!BenchReport::ReadJsonFile(path, &written, &error)) {
    std::fprintf(stderr, "SCHEMA VALIDATION FAILED: %s\n", error.c_str());
    return 1;
  }
  std::printf("Schema validation: ok\n");
  if (densify_regressed && !smoke) return 1;
  return 0;
}

}  // namespace
}  // namespace qkbfly

int main(int argc, char** argv) {
  bool smoke = false;
  const char* baseline = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    }
  }
  return qkbfly::Run(smoke, baseline);
}
