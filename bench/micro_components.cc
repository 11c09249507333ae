// Micro-benchmarks (google-benchmark) for the hot paths the paper's runtime
// discussion touches: dependency parsing (fast vs slow backend), semantic
// graph construction, greedy densification, ILP solving, background
// statistics lookups and BM25 retrieval.
#include <benchmark/benchmark.h>

#include <atomic>

#include "core/qkbfly.h"
#include "densify/ilp_densifier.h"
#include "nlp/pipeline.h"
#include "parser/router.h"
#include "retrieval/search_engine.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

// Set by --smoke (the bench-smoke ctest label): shrinks the dataset so the
// whole suite doubles as a fast build-health check.
std::atomic<bool> g_smoke{false};

const SynthDataset& Dataset() {
  static const SynthDataset* ds = [] {
    DatasetConfig config;
    config.wiki_eval_articles = g_smoke ? 6 : 20;
    return BuildDataset(config).release();
  }();
  return *ds;
}

std::vector<Token> SampleSentence() {
  static const std::vector<Token>* tokens = [] {
    NlpPipeline nlp(Dataset().repository.get());
    auto s = nlp.AnnotateSentence(
        "Emily Clark, who married David Cook, was born in Clearbrook on "
        "May 3, 1985 and studied at University of Clearbrook.");
    return new std::vector<Token>(s.tokens);
  }();
  return *tokens;
}

void BM_MaltParser(benchmark::State& state) {
  auto parser = MakeParser(ParserMode::kLinear);
  auto tokens = SampleSentence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser->Parse(tokens));
  }
}
BENCHMARK(BM_MaltParser);

void BM_GraphMstParser(benchmark::State& state) {
  auto parser = MakeParser(ParserMode::kMst);
  auto tokens = SampleSentence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser->Parse(tokens));
  }
}
BENCHMARK(BM_GraphMstParser);

void BM_AdaptiveParser(benchmark::State& state) {
  auto parser = MakeParser(ParserMode::kAdaptive);
  auto tokens = SampleSentence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser->Parse(tokens));
  }
}
BENCHMARK(BM_AdaptiveParser);

void BM_SentenceComplexity(benchmark::State& state) {
  auto tokens = SampleSentence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SentenceComplexity(tokens));
  }
}
BENCHMARK(BM_SentenceComplexity);

void BM_NlpPipeline(benchmark::State& state) {
  const auto& ds = Dataset();
  NlpPipeline nlp(ds.repository.get());
  const Document& doc = ds.wiki_eval.front().doc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nlp.Annotate(doc.id, doc.title, doc.text));
  }
}
BENCHMARK(BM_NlpPipeline);

void BM_GreedyDensify(benchmark::State& state) {
  const auto& ds = Dataset();
  EngineConfig config;
  QkbflyEngine engine(ds.repository.get(), &ds.patterns, &ds.stats, config);
  const Document& doc = ds.wiki_eval.front().doc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ProcessDocument(doc));
  }
}
BENCHMARK(BM_GreedyDensify);

void BM_IlpDensify(benchmark::State& state) {
  const auto& ds = Dataset();
  EngineConfig config;
  config.mode = InferenceMode::kIlp;
  QkbflyEngine engine(ds.repository.get(), &ds.patterns, &ds.stats, config);
  const Document& doc = ds.wiki_eval.front().doc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ProcessDocument(doc));
  }
}
BENCHMARK(BM_IlpDensify);

void BM_Canonicalize(benchmark::State& state) {
  const auto& ds = Dataset();
  EngineConfig config;
  QkbflyEngine engine(ds.repository.get(), &ds.patterns, &ds.stats, config);
  auto result = engine.ProcessDocument(ds.wiki_eval.front().doc);
  for (auto _ : state) {
    auto kb = engine.MakeKb();
    Canonicalizer::Merge(&kb, engine.canonicalizer().Extract(
                                  result.graph, result.densified,
                                  result.annotated));
    benchmark::DoNotOptimize(kb.size());
  }
}
BENCHMARK(BM_Canonicalize);

void BM_StatsPriorLookup(benchmark::State& state) {
  const auto& ds = Dataset();
  const Entity& e = ds.repository->Get(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.stats.Prior(e.canonical_name, 0));
  }
}
BENCHMARK(BM_StatsPriorLookup);

void BM_TypeSignatureLookup(benchmark::State& state) {
  const auto& ds = Dataset();
  std::vector<TypeId> person = {*ds.types.Find("PERSON")};
  std::vector<TypeId> city = {*ds.types.Find("CITY")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.stats.TypeSignatureSum(person, "bear in", city));
  }
}
BENCHMARK(BM_TypeSignatureLookup);

void BM_Bm25Search(benchmark::State& state) {
  const auto& ds = Dataset();
  Bm25Index index;
  index.Build(&ds.background);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search("married in Clearbrook", 10));
  }
}
BENCHMARK(BM_Bm25Search);

}  // namespace
}  // namespace qkbfly

int main(int argc, char** argv) {
  // Strip --smoke before benchmark flag parsing (it would be rejected).
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      qkbfly::g_smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
