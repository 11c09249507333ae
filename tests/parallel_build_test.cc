// Determinism of the parallel document pipeline: BuildKb must produce an
// identical KB (facts, confidences, emerging entities, minted relations)
// for every thread count, because canonicalization merges the per-document
// results in input order. Also run under TSAN via `ctest -L tsan` to catch
// data races in the shared read-only state.
#include "core/qkbfly.h"

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

/// Full text rendering of a KB: facts with confidence, emerging-entity
/// clusters with every mention. Any nondeterminism shows up here.
std::string Serialize(const OnTheFlyKb& kb) {
  std::string out;
  char buf[64];
  for (const Fact& f : kb.facts()) {
    std::snprintf(buf, sizeof(buf), " conf=%.12f pattern=", f.confidence);
    out += kb.FactToString(f);
    out += buf;
    out += kb.RelationName(f.relation);
    out += '\n';
  }
  for (const EmergingEntity& e : kb.emerging_entities()) {
    out += "emerging " + e.representative + ":";
    for (const std::string& m : e.mentions) out += " " + m;
    out += '\n';
  }
  return out;
}

class ParallelBuildTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.wiki_eval_articles = 16;
    config.news_docs = 8;
    dataset_ = BuildDataset(config).release();
    for (const GoldDocument& gd : dataset_->wiki_eval) {
      docs_.push_back(gd.doc);
    }
    for (const GoldDocument& gd : dataset_->news) docs_.push_back(gd.doc);
  }

  static OnTheFlyKb Build(int num_threads,
                          std::vector<DocumentResult>* results = nullptr) {
    EngineConfig config;
    config.num_threads = num_threads;
    QkbflyEngine engine(dataset_->repository.get(), &dataset_->patterns,
                        &dataset_->stats, config);
    return engine.BuildKb(docs_, results);
  }

  static SynthDataset* dataset_;
  static std::vector<Document> docs_;
};

SynthDataset* ParallelBuildTest::dataset_ = nullptr;
std::vector<Document> ParallelBuildTest::docs_;

TEST_F(ParallelBuildTest, ParallelKbIdenticalToSerial) {
  OnTheFlyKb serial = Build(1);
  ASSERT_GT(serial.size(), 0u);
  std::string expected = Serialize(serial);
  for (int threads : {2, 4, 8}) {
    OnTheFlyKb parallel = Build(threads);
    EXPECT_EQ(Serialize(parallel), expected)
        << "KB diverged at " << threads << " threads";
  }
}

TEST_F(ParallelBuildTest, SerialRunsAreDeterministic) {
  EXPECT_EQ(Serialize(Build(1)), Serialize(Build(1)));
}

TEST_F(ParallelBuildTest, DocumentResultsKeepInputOrderAndTimings) {
  // Stage times have one record, the engine's registry histograms: each
  // grows by one sample per document.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Histogram* stages[] = {
      registry.GetHistogram("pipeline_annotate_seconds"),
      registry.GetHistogram("pipeline_graph_build_seconds"),
      registry.GetHistogram("pipeline_densify_seconds"),
      registry.GetHistogram("pipeline_canonicalize_seconds")};
  std::vector<uint64_t> before;
  for (obs::Histogram* stage : stages) {
    before.push_back(stage->Snapshot().count());
  }

  std::vector<DocumentResult> results;
  OnTheFlyKb kb = Build(4, &results);
  ASSERT_EQ(results.size(), docs_.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].annotated.id, docs_[i].id);
    EXPECT_GT(results[i].seconds, 0.0);
  }
  for (size_t i = 0; i < std::size(stages); ++i) {
    EXPECT_EQ(stages[i]->Snapshot().count() - before[i], docs_.size());
  }
}

TEST_F(ParallelBuildTest, DensifyCountersSumDocumentResults) {
  // Each counter grows by the sum of its DocumentResult field, and the sums
  // do not depend on the thread count.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* contributions =
      registry.GetCounter("densify_contributions_total");
  obs::Counter* removed = registry.GetCounter("densify_edges_removed_total");
  std::vector<uint64_t> contribution_deltas;
  std::vector<uint64_t> removed_deltas;
  for (int threads : {1, 4}) {
    const uint64_t contributions_before = contributions->Value();
    const uint64_t removed_before = removed->Value();
    std::vector<DocumentResult> results;
    (void)Build(threads, &results);
    uint64_t contribution_sum = 0;
    uint64_t removed_sum = 0;
    for (const DocumentResult& r : results) {
      contribution_sum +=
          static_cast<uint64_t>(r.densified.contributions_evaluated);
      removed_sum += static_cast<uint64_t>(r.densified.edges_removed);
    }
    contribution_deltas.push_back(contributions->Value() - contributions_before);
    removed_deltas.push_back(removed->Value() - removed_before);
    EXPECT_EQ(contribution_deltas.back(), contribution_sum) << threads;
    EXPECT_EQ(removed_deltas.back(), removed_sum) << threads;
  }
  EXPECT_GT(contribution_deltas.front(), removed_deltas.front());
  EXPECT_EQ(contribution_deltas.front(), contribution_deltas.back());
  EXPECT_EQ(removed_deltas.front(), removed_deltas.back());
}

TEST_F(ParallelBuildTest, LooseCandidateCacheCountsHits) {
  CacheStats before = dataset_->repository->loose_cache_stats();
  (void)Build(4);
  CacheStats after = dataset_->repository->loose_cache_stats();
  EXPECT_GT(after.Lookups(), before.Lookups());
  // A second identical build hits the warm cache on every mention.
  (void)Build(4);
  CacheStats warm = dataset_->repository->loose_cache_stats();
  EXPECT_GT(warm.hits, after.hits);
}

TEST_F(ParallelBuildTest, LooseCandidatesComputesAFreshMentionOnce) {
  // Eight threads ask at once for a mention nobody has looked up (no graph
  // builder uses this limit): one computes it, the rest join its in-flight
  // entry or hit the ready one.
  const EntityRepository& repo = *dataset_->repository;
  const std::string mention =
      repo.Get(0).canonical_name + " " + repo.Get(1).canonical_name;
  constexpr size_t kLimit = 999;
  constexpr size_t kThreads = 8;
  const CacheStats before = repo.loose_cache_stats();
  std::atomic<bool> go{false};
  std::vector<std::vector<EntityId>> seen(kThreads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      seen[t] = repo.LooseCandidates(mention, kLimit);
    });
  }
  go.store(true);
  for (std::thread& w : workers) w.join();
  const CacheStats delta = repo.loose_cache_stats() - before;
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.hits, kThreads - 1);
  for (const std::vector<EntityId>& ids : seen) EXPECT_EQ(ids, seen.front());
}

}  // namespace
}  // namespace qkbfly
