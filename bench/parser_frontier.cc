// Sweeps the adaptive parser's complexity threshold across the
// quality/latency frontier (ISSUE 9): pure linear and pure MST anchor the
// two ends, and adaptive configurations at increasing thresholds trade MST
// share (quality) against wall time. For every configuration the bench
// measures precision/recall/F1 against the synth gold plus per-document
// runtime, and writes the machine-readable BENCH_parser.json.
//
// Invariants enforced on every run (smoke and full):
//   - adaptive @ threshold 0   builds a KB byte-identical to pure MST
//   - adaptive @ threshold inf builds a KB byte-identical to pure linear
// Additionally on full runs (hard gates; smoke is report-only for timing):
//   - adaptive @ default threshold wall time lies between the pure modes
//     and within 1.25x of pure linear
//   - adaptive @ default threshold F1 within 0.02 of pure MST F1
//
// Usage: parser_frontier [--smoke]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/qkbfly.h"
#include "eval/fact_matching.h"
#include "obs/metrics.h"
#include "parser/router.h"
#include "synth/dataset.h"
#include "util/bench_report.h"
#include "util/timer.h"

namespace qkbfly {
namespace {

struct FrontierRow {
  std::string name;          ///< JSON record name ("parser/adaptive_t4").
  double threshold = 0.0;    ///< Routing threshold (ignored for pure modes).
  double wall_s = 0.0;       ///< Summed per-document extraction wall time.
  uint64_t facts = 0;
  BenchReport::QualityFields quality;
};

uint64_t RoutedToLinear() {
  return obs::MetricsRegistry::Default()
      .GetCounter("parser_route_linear_total",
                  "Sentences routed to the linear parser")
      ->Value();
}

uint64_t RoutedToMst() {
  return obs::MetricsRegistry::Default()
      .GetCounter("parser_route_mst_total",
                  "Sentences routed to the MST parser")
      ->Value();
}

/// Runs one parser configuration over the gold corpus: per-document
/// extraction through the full engine, precision over the extracted facts,
/// recall over the gold extractions (each gold extraction is matched by
/// re-judging every fact against a single-extraction copy of the document's
/// gold), and the adaptive router's MST share from the routing counters.
FrontierRow RunConfig(const SynthDataset& ds,
                      const std::vector<const GoldDocument*>& golds,
                      const FactJudge& judge, std::string name,
                      ParserMode mode, double threshold) {
  EngineConfig config;
  config.parser_mode = mode;
  config.parser_complexity_threshold = threshold;
  QkbflyEngine engine(ds.repository.get(), &ds.patterns, &ds.stats, config);

  uint64_t linear_before = RoutedToLinear();
  uint64_t mst_before = RoutedToMst();

  FrontierRow row;
  row.name = std::move(name);
  row.threshold = threshold;
  size_t correct = 0, extracted = 0, gold_hit = 0, gold_total = 0;
  for (const GoldDocument* gd : golds) {
    WallTimer timer;
    OnTheFlyKb kb = engine.MakeKb();
    Canonicalizer::Merge(&kb, engine.ExtractDocument(gd->doc));
    row.wall_s += timer.ElapsedSeconds();
    row.facts += kb.size();
    for (const Fact& f : kb.facts()) {
      ++extracted;
      if (judge.IsCorrectFact(f, *gd, kb)) ++correct;
    }
    // Recall: a gold extraction counts as recovered when some extracted fact
    // is licensed by it alone.
    for (const GoldExtraction& g : gd->extractions) {
      ++gold_total;
      GoldDocument single;
      single.doc = gd->doc;
      single.extractions.push_back(g);
      for (const Fact& f : kb.facts()) {
        if (judge.IsCorrectFact(f, single, kb)) {
          ++gold_hit;
          break;
        }
      }
    }
  }

  uint64_t to_linear = RoutedToLinear() - linear_before;
  uint64_t to_mst = RoutedToMst() - mst_before;

  BenchReport::QualityFields& q = row.quality;
  q.precision = extracted > 0
                    ? static_cast<double>(correct) / static_cast<double>(extracted)
                    : 0.0;
  q.recall = gold_total > 0
                 ? static_cast<double>(gold_hit) / static_cast<double>(gold_total)
                 : 0.0;
  q.f1 = (q.precision + q.recall) > 0.0
             ? 2.0 * q.precision * q.recall / (q.precision + q.recall)
             : 0.0;
  switch (mode) {
    case ParserMode::kLinear:
      q.mst_share = 0.0;
      break;
    case ParserMode::kMst:
      q.mst_share = 1.0;
      break;
    case ParserMode::kAdaptive:
      q.mst_share = (to_linear + to_mst) > 0
                        ? static_cast<double>(to_mst) /
                              static_cast<double>(to_linear + to_mst)
                        : 0.0;
      break;
  }
  return row;
}

/// Serialized KB of an end-to-end BuildKb under one parser configuration —
/// the byte-identity probe for the dial extremes.
std::string SerializedKb(const SynthDataset& ds,
                         const std::vector<const Document*>& docs,
                         ParserMode mode, double threshold) {
  EngineConfig config;
  config.parser_mode = mode;
  config.parser_complexity_threshold = threshold;
  QkbflyEngine engine(ds.repository.get(), &ds.patterns, &ds.stats, config);
  return engine.BuildKb(docs).Serialize();
}

void PrintRow(const FrontierRow& row, int docs) {
  char threshold_buf[32];
  if (std::isinf(row.threshold)) {
    std::snprintf(threshold_buf, sizeof(threshold_buf), "%8s", "inf");
  } else {
    std::snprintf(threshold_buf, sizeof(threshold_buf), "%8.1f",
                  row.threshold);
  }
  std::printf("%-24s %s %9.3f %9.2f %7.3f %7.3f %7.3f %8.1f%%\n",
              row.name.c_str(), threshold_buf, row.wall_s,
              docs > 0 ? row.wall_s * 1e3 / docs : 0.0, row.quality.precision,
              row.quality.recall, row.quality.f1,
              row.quality.mst_share * 100.0);
}

int Run(bool smoke) {
  DatasetConfig config;
  config.wiki_eval_articles = smoke ? 6 : 60;
  config.news_docs = smoke ? 4 : 40;
  auto ds = BuildDataset(config);
  FactJudge judge(ds.get());

  std::vector<const GoldDocument*> golds;
  std::vector<const Document*> docs;
  for (const GoldDocument& gd : ds->wiki_eval) {
    golds.push_back(&gd);
    docs.push_back(&gd.doc);
  }
  for (const GoldDocument& gd : ds->news) {
    golds.push_back(&gd);
    docs.push_back(&gd.doc);
  }

  const double kInf = std::numeric_limits<double>::infinity();
  std::printf("Parser frontier: %zu documents%s, default threshold %.1f\n\n",
              golds.size(), smoke ? " (smoke)" : "",
              kDefaultParserComplexityThreshold);
  std::printf("%-24s %8s %9s %9s %7s %7s %7s %9s\n", "config", "thresh",
              "wall s", "ms/doc", "prec", "recall", "f1", "mst");

  BenchReport report;
  FrontierRow linear = RunConfig(*ds, golds, judge, "parser/linear",
                                 ParserMode::kLinear, 0.0);
  FrontierRow mst =
      RunConfig(*ds, golds, judge, "parser/mst", ParserMode::kMst, 0.0);
  PrintRow(linear, static_cast<int>(golds.size()));
  PrintRow(mst, static_cast<int>(golds.size()));

  const double thresholds[] = {0.0, 2.0, 4.0, kDefaultParserComplexityThreshold,
                               8.0, 12.0, kInf};
  FrontierRow at_default;
  for (double t : thresholds) {
    char name[64];
    if (std::isinf(t)) {
      std::snprintf(name, sizeof(name), "parser/adaptive_t_inf");
    } else {
      std::snprintf(name, sizeof(name), "parser/adaptive_t%g", t);
    }
    FrontierRow row =
        RunConfig(*ds, golds, judge, name, ParserMode::kAdaptive, t);
    PrintRow(row, static_cast<int>(golds.size()));
    if (t == kDefaultParserComplexityThreshold) at_default = row;
    report.Add(row.name, static_cast<int>(golds.size()), 1, row.wall_s,
               row.facts, row.quality);
  }
  report.Add(linear.name, static_cast<int>(golds.size()), 1, linear.wall_s,
             linear.facts, linear.quality);
  report.Add(mst.name, static_cast<int>(golds.size()), 1, mst.wall_s,
             mst.facts, mst.quality);

  // Dial-extreme byte-identity: the adaptive parser at threshold 0 IS the
  // MST parser, and at +inf IS the linear parser, all the way out to the
  // serialized KB. Enforced on every run, smoke included.
  int failures = 0;
  if (SerializedKb(*ds, docs, ParserMode::kAdaptive, 0.0) !=
      SerializedKb(*ds, docs, ParserMode::kMst, 0.0)) {
    std::fprintf(stderr, "FAIL: adaptive @ threshold 0 KB differs from "
                 "pure MST\n");
    ++failures;
  }
  if (SerializedKb(*ds, docs, ParserMode::kAdaptive, kInf) !=
      SerializedKb(*ds, docs, ParserMode::kLinear, 0.0)) {
    std::fprintf(stderr, "FAIL: adaptive @ threshold inf KB differs from "
                 "pure linear\n");
    ++failures;
  }
  if (failures == 0) {
    std::printf("\ndial extremes byte-identical to pure modes: OK\n");
  }

  // Frontier sanity gates. Timing gates are hard only on full runs — smoke
  // corpora are too small for stable wall-clock comparisons.
  double wall_lo = std::min(linear.wall_s, mst.wall_s);
  double wall_hi = std::max(linear.wall_s, mst.wall_s);
  bool wall_between =
      at_default.wall_s >= wall_lo * 0.95 && at_default.wall_s <= wall_hi;
  bool wall_near_linear = at_default.wall_s <= 1.25 * linear.wall_s;
  bool f1_near_mst = at_default.quality.f1 >= mst.quality.f1 - 0.02;
  std::printf("adaptive @ default: wall between pure modes: %s; "
              "<= 1.25x linear: %s; F1 >= MST - 0.02: %s\n",
              wall_between ? "yes" : "no", wall_near_linear ? "yes" : "no",
              f1_near_mst ? "yes" : "no");
  if (!smoke) {
    if (!wall_between) {
      std::fprintf(stderr, "FAIL: adaptive wall time outside the pure-mode "
                   "envelope\n");
      ++failures;
    }
    if (!wall_near_linear) {
      std::fprintf(stderr, "FAIL: adaptive wall time > 1.25x pure linear\n");
      ++failures;
    }
    if (!f1_near_mst) {
      std::fprintf(stderr, "FAIL: adaptive F1 more than 0.02 below MST\n");
      ++failures;
    }
  }

  if (!report.WriteJson("BENCH_parser.json")) {
    std::fprintf(stderr, "FAIL: cannot write BENCH_parser.json\n");
    return 1;
  }
  std::vector<BenchReport::Entry> written;
  std::string error;
  if (!BenchReport::ReadJsonFile("BENCH_parser.json", &written, &error)) {
    std::fprintf(stderr, "FAIL: BENCH_parser.json schema: %s\n",
                 error.c_str());
    return 1;
  }
  std::printf("Wrote BENCH_parser.json (schema OK)\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qkbfly

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return qkbfly::Run(smoke);
}
