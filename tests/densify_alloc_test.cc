// Steady-state allocation test for the greedy densifier: after one warmup
// pass populates the thread-local DensifyWorkspace (universes, weight lanes,
// loop buffers), repeating Densify on same-shape documents must perform ZERO
// heap allocations. Counting happens through replaced global operator
// new/delete, so this test deliberately lives in its own binary.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "densify/greedy_densifier.h"
#include "graph/graph_builder.h"
#include "nlp/pipeline.h"
#include "parser/malt_parser.h"
#include "synth/dataset.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Replacing these four covers scalar and array new across the process.
void* operator new(size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](size_t size) { return ::operator new(size); }

// The replaced operator new above is malloc-backed, so free() here pairs
// correctly; GCC cannot see that and warns about the mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace qkbfly {
namespace {

TEST(DensifyAllocTest, SteadyStateDensifyIsAllocationFree) {
#if defined(QKBFLY_CHECK_INVARIANTS)
  GTEST_SKIP() << "invariant-checking builds allocate inside the debug "
                  "recount checks by design";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes allocate behind the allocator hooks";
#endif

  DatasetConfig config;
  config.wiki_eval_articles = 6;
  auto ds = BuildDataset(config);

  NlpPipeline pipeline(ds->repository.get());
  GraphBuilder builder(ds->repository.get(), std::make_unique<MaltLikeParser>(),
                       GraphBuilder::Options());
  GreedyDensifier densifier(&ds->stats, ds->repository.get(), DensifyParams());

  // Annotate + build once; densify mutates the graph, so each measured pass
  // runs on pre-made copies produced OUTSIDE the counting window.
  std::vector<AnnotatedDocument> docs;
  std::vector<SemanticGraph> graphs;
  for (const GoldDocument& gd : ds->wiki_eval) {
    docs.push_back(pipeline.Annotate(gd.doc.id, gd.doc.title, gd.doc.text));
    graphs.push_back(builder.Build(docs.back()));
  }
  ASSERT_FALSE(graphs.empty());

  DensifyResult result;
  auto run_pass = [&](std::vector<SemanticGraph>* copies) {
    for (size_t i = 0; i < copies->size(); ++i) {
      densifier.Densify(&(*copies)[i], docs[i], &result);
      EXPECT_GE(result.objective, 0.0);
    }
  };

  // Warmup: two passes grow every retained buffer (workspace lanes, the
  // reused DensifyResult) to its high-water mark.
  for (int warmup = 0; warmup < 2; ++warmup) {
    std::vector<SemanticGraph> copies = graphs;
    for (SemanticGraph& g : copies) g.Finalize();  // CSR built pre-window
    run_pass(&copies);
  }

  // Measured pass: copies and their CSR indexes are prepared before the
  // window opens, so the window sees only GreedyDensifier::Densify itself.
  std::vector<SemanticGraph> copies = graphs;
  for (SemanticGraph& g : copies) g.Finalize();
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  run_pass(&copies);
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "GreedyDensifier::Densify allocated in steady state";
}

}  // namespace
}  // namespace qkbfly
