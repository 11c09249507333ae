// Serving-layer tests: warm/cold KB identity, single-flight deduplication,
// byte-budget eviction, and a concurrent-query stress run whose hits all
// read one shared KB per query (labeled tsan and asan; run the sanitizer
// trees via ctest -L tsan / -L asan).
#include "service/kb_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

/// Full text rendering of a KB (same shape as parallel_build_test): any
/// warm-vs-cold divergence shows up here.
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

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.wiki_eval_articles = 12;
    config.news_docs = 8;
    dataset_ = BuildDataset(config).release();
    wiki_ = new DocumentStore();
    news_ = new DocumentStore();
    for (const GoldDocument& gd : dataset_->wiki_eval) {
      ASSERT_TRUE(wiki_->Add(gd.doc).ok());
    }
    for (const GoldDocument& gd : dataset_->news) {
      ASSERT_TRUE(news_->Add(gd.doc).ok());
    }
    search_ = new SearchEngine(wiki_, news_);
    engine_ = new QkbflyEngine(dataset_->repository.get(), &dataset_->patterns,
                               &dataset_->stats, EngineConfig());
  }

  static std::vector<std::string> SomeQueries(size_t n) {
    std::vector<std::string> queries;
    for (const GoldDocument& gd : dataset_->wiki_eval) {
      if (queries.size() >= n) break;
      queries.push_back(gd.doc.title);
    }
    return queries;
  }

  static SynthDataset* dataset_;
  static DocumentStore* wiki_;
  static DocumentStore* news_;
  static SearchEngine* search_;
  static QkbflyEngine* engine_;
};

SynthDataset* ServiceTest::dataset_ = nullptr;
DocumentStore* ServiceTest::wiki_ = nullptr;
DocumentStore* ServiceTest::news_ = nullptr;
SearchEngine* ServiceTest::search_ = nullptr;
QkbflyEngine* ServiceTest::engine_ = nullptr;

DocumentFacts FakeFacts(const std::string& id) {
  DocumentFacts facts;
  Fact fact;
  fact.relation_pattern = "title of";
  fact.doc_id = id;
  facts.facts.push_back(fact);
  return facts;
}

TEST_F(ServiceTest, WarmAnswerIsByteIdenticalToCold) {
  // Doc-tier test: clear the query tier between the answers so the second
  // Answer() exercises the per-document cache (store_test covers the
  // query-warm path).
  KbService service(engine_, search_);
  std::string query = dataset_->wiki_eval.front().doc.title;

  KbService::QueryResult cold = service.Answer(query);
  ASSERT_GT(cold.kb.size(), 0u);
  ASSERT_GT(cold.stats.documents, 0u);
  EXPECT_EQ(cold.stats.cache.hits, 0u);
  EXPECT_EQ(cold.stats.cache.misses, cold.stats.documents);

  service.ClearQueryTier();
  KbService::QueryResult warm = service.Answer(query);
  EXPECT_EQ(Serialize(warm.kb), Serialize(cold.kb));
  EXPECT_EQ(warm.answers, cold.answers);
  EXPECT_EQ(warm.stats.cache.misses, 0u);
  EXPECT_EQ(warm.stats.cache.hits, warm.stats.documents);
  EXPECT_DOUBLE_EQ(warm.stats.CacheHitRate(), 1.0);
}

TEST_F(ServiceTest, ServiceBuildMatchesUncachedEngineBuild) {
  std::vector<const Document*> docs;
  for (const GoldDocument& gd : dataset_->wiki_eval) docs.push_back(&gd.doc);
  std::vector<const Document*> reversed(docs.rbegin(), docs.rend());

  // The default threshold, and tau = 0.9, under which some clusters lose
  // every fact yet must still be registered by Merge.
  EngineConfig precise_config;
  precise_config.canon.confidence_threshold = 0.9;
  QkbflyEngine precise(dataset_->repository.get(), &dataset_->patterns,
                       &dataset_->stats, precise_config);
  size_t clusters_without_facts = 0;
  for (const QkbflyEngine* engine : {engine_, &precise}) {
    SCOPED_TRACE(engine->config().Fingerprint());
    KbService service(engine, search_);
    std::string uncached = Serialize(engine->BuildKb(docs));
    EXPECT_EQ(Serialize(service.BuildKb(docs)), uncached);  // cold
    EXPECT_EQ(Serialize(service.BuildKb(docs)), uncached);  // warm

    // The cached facts were extracted once, in the forward order; replaying
    // the reversed order from the warm tier must still match the engine's
    // own build of that order, so emerging ids cannot be baked into the
    // cache.
    ServiceStats stats;
    OnTheFlyKb warm = service.BuildKb(reversed, &stats);
    EXPECT_EQ(stats.cache.misses, 0u);
    EXPECT_EQ(warm.Serialize(), engine->BuildKb(reversed).Serialize());

    // Independently of Merge: every document's clusters are registered, in
    // document order then cluster order, and every emerging argument names
    // the entity it was extracted for.
    std::vector<std::string> representatives;
    size_t documents_with_clusters = 0;
    for (const Document* doc : reversed) {
      DocumentResult r = engine->ProcessDocument(*doc);
      DocumentFacts facts =
          engine->canonicalizer().Extract(r.graph, r.densified, r.annotated);
      if (!facts.clusters.empty()) ++documents_with_clusters;
      std::vector<bool> cited(facts.clusters.size(), false);
      for (const Fact& f : facts.facts) {
        if (f.subject.kind == FactArg::Kind::kEmerging) {
          cited[f.subject.emerging] = true;
        }
        for (const FactArg& a : f.args) {
          if (a.kind == FactArg::Kind::kEmerging) cited[a.emerging] = true;
        }
      }
      for (size_t i = 0; i < facts.clusters.size(); ++i) {
        representatives.push_back(facts.clusters[i].representative);
        if (!cited[i]) ++clusters_without_facts;
      }
    }
    ASSERT_GE(documents_with_clusters, 2u);
    ASSERT_EQ(warm.emerging_entities().size(), representatives.size());
    for (size_t i = 0; i < representatives.size(); ++i) {
      EXPECT_EQ(warm.emerging_entities()[i].representative,
                representatives[i]);
    }
    size_t emerging_args = 0;
    for (const Fact& f : warm.facts()) {
      std::vector<const FactArg*> args = {&f.subject};
      for (const FactArg& a : f.args) args.push_back(&a);
      for (const FactArg* a : args) {
        if (a->kind != FactArg::Kind::kEmerging) continue;
        ++emerging_args;
        EXPECT_EQ(warm.emerging(a->emerging).representative, a->surface);
      }
    }
    EXPECT_GT(emerging_args, 0u);
  }
  EXPECT_GT(clusters_without_facts, 0u);
}

// Both BuildKbs run one per-document unit, QkbflyEngine::ExtractDocument:
// a cold service build and the engine's own build at 1 and 4 threads give
// the same bytes, and the doc tier extracts each document exactly once,
// timed by the same histogram as the engine's build.
TEST_F(ServiceTest, ServiceAndEngineBuildsShareOneExtractPerDocument) {
  std::vector<const Document*> docs;
  for (const GoldDocument& gd : dataset_->wiki_eval) docs.push_back(&gd.doc);
  for (const GoldDocument& gd : dataset_->news) docs.push_back(&gd.doc);
  auto engine_bytes = [&](int threads) {
    EngineConfig config;
    config.num_threads = threads;
    QkbflyEngine engine(dataset_->repository.get(), &dataset_->patterns,
                        &dataset_->stats, config);
    return engine.BuildKb(docs).Serialize();
  };
  const std::string serial = engine_bytes(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(engine_bytes(4), serial);

  obs::Histogram* extract_seconds =
      obs::MetricsRegistry::Default().GetHistogram(
          "pipeline_canonicalize_seconds");
  const uint64_t extracts_before = extract_seconds->Snapshot().count();
  KbServiceOptions options;
  options.num_threads = 4;
  KbService service(engine_, nullptr, options);
  obs::Trace trace("build");
  ServiceStats stats;
  EXPECT_EQ(service.BuildKb(docs, &stats, {&trace, trace.root()}).Serialize(),
            serial);
  trace.Finish();
  EXPECT_EQ(stats.cache.misses, docs.size());
  EXPECT_EQ(extract_seconds->Snapshot().count() - extracts_before,
            docs.size());
  std::vector<obs::Span> spans = trace.Snapshot();
  size_t extracts = 0;
  for (const obs::Span& s : spans) {
    if (s.name != "extract") continue;
    ++extracts;
    EXPECT_EQ(spans[s.parent].name, "fetch_or_compute");
  }
  EXPECT_EQ(extracts, docs.size());
}

TEST_F(ServiceTest, MetricsAccumulateAcrossQueries) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* served = registry.GetCounter("service_queries_total");
  obs::Histogram* latency = registry.GetHistogram("service_answer_seconds");
  const uint64_t served_before = served->Value();
  const LatencyHistogram latency_before = latency->Snapshot();

  KbService service(engine_, search_);
  auto queries = SomeQueries(4);
  for (int round = 0; round < 2; ++round) {
    for (const std::string& q : queries) (void)service.Answer(q);
  }
  const LatencyHistogram latency_after = latency->Snapshot();
  EXPECT_EQ(served->Value() - served_before, queries.size() * 2);
  EXPECT_EQ(latency_after.count() - latency_before.count(),
            queries.size() * 2);
  EXPECT_GT(latency_after.sum_seconds() - latency_before.sum_seconds(), 0.0);
  CacheStats cache = service.cache().stats();
  EXPECT_GT(cache.hits, 0u);
  EXPECT_GT(cache.misses, 0u);
  EXPECT_GT(service.cache().entry_count(), 0u);
  EXPECT_LE(service.cache().ApproxBytesUsed(), service.cache().byte_budget());
}

TEST_F(ServiceTest, ConcurrentQueriesAreSafeAndDeterministic) {
  obs::Counter* served =
      obs::MetricsRegistry::Default().GetCounter("service_queries_total");
  const uint64_t served_before = served->Value();
  KbService service(engine_, search_);
  auto queries = SomeQueries(4);

  // Expected KBs from a serial pass, and the objects the query tier shares.
  std::vector<std::string> expected;
  std::vector<std::shared_ptr<const OnTheFlyKb>> shared;
  for (const std::string& q : queries) {
    KbService::QueryResult r = service.Answer(q);
    expected.push_back(Serialize(r.kb));
    shared.push_back(r.shared_kb);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  std::atomic<int> copies{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        size_t qi = static_cast<size_t>(t + round) % queries.size();
        KbService::QueryResult r = service.Answer(queries[qi]);
        if (Serialize(r.kb) != expected[qi]) ++mismatches;
        if (&r.kb != shared[qi].get()) ++copies;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Every concurrent hit read the one shared KB of its query.
  EXPECT_EQ(copies.load(), 0);
  EXPECT_EQ(served->Value() - served_before,
            queries.size() + kThreads * kRounds);
}

TEST(DocumentResultCacheTest, SingleFlightComputesOnce) {
  DocumentResultCache cache;
  std::atomic<int> computations{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      auto result = cache.FetchOrCompute(memo::JoinKey({"doc", "fp"}), [&] {
        ++computations;
        // Hold the in-flight window open so the other threads join it.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return FakeFacts("doc");
      });
      EXPECT_EQ(result->facts.front().doc_id, "doc");
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(computations.load(), 1);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(DocumentResultCacheTest, DistinguishesConfigFingerprints) {
  DocumentResultCache cache;
  int computations = 0;
  auto compute = [&] {
    ++computations;
    return FakeFacts("doc");
  };
  (void)cache.FetchOrCompute(memo::JoinKey({"doc", "fp-a"}), compute);
  (void)cache.FetchOrCompute(memo::JoinKey({"doc", "fp-b"}), compute);
  (void)cache.FetchOrCompute(memo::JoinKey({"doc", "fp-a"}), compute);
  EXPECT_EQ(computations, 2);
}

TEST(DocumentResultCacheTest, EvictsLruUnderByteBudget) {
  // One shard so LRU order is global; a budget of ~3 fake entries.
  DocumentResultCache::Options options;
  options.num_shards = 1;
  size_t entry_bytes = 0;
  {
    DocumentResultCache probe(options);
    (void)probe.FetchOrCompute(memo::JoinKey({"probe", "fp"}),
                               [] { return FakeFacts("probe"); });
    entry_bytes = probe.ApproxBytesUsed();
    ASSERT_GT(entry_bytes, 0u);
  }
  options.byte_budget = 3 * entry_bytes + entry_bytes / 2;
  DocumentResultCache cache(options);
  for (int i = 0; i < 10; ++i) {
    std::string id = "doc" + std::to_string(i);
    (void)cache.FetchOrCompute(memo::JoinKey({id, "fp"}),
                               [&] { return FakeFacts(id); });
  }
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(cache.ApproxBytesUsed(), cache.byte_budget());
  EXPECT_LT(cache.entry_count(), 10u);

  // The most recent key survived; the oldest was evicted and recomputes.
  bool hit = false;
  (void)cache.FetchOrCompute(memo::JoinKey({"doc9", "fp"}),
                             [] { return FakeFacts("doc9"); }, &hit);
  EXPECT_TRUE(hit);
  (void)cache.FetchOrCompute(memo::JoinKey({"doc0", "fp"}),
                             [] { return FakeFacts("doc0"); }, &hit);
  EXPECT_FALSE(hit);
}

TEST(DocumentResultCacheTest, ClearDropsResidentEntries) {
  DocumentResultCache cache;
  (void)cache.FetchOrCompute(memo::JoinKey({"doc", "fp"}),
                             [] { return FakeFacts("doc"); });
  ASSERT_EQ(cache.entry_count(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.ApproxBytesUsed(), 0u);
  bool hit = true;
  (void)cache.FetchOrCompute(memo::JoinKey({"doc", "fp"}),
                             [] { return FakeFacts("doc"); }, &hit);
  EXPECT_FALSE(hit);
}

TEST(DocumentResultCacheTest, ComputeMayReenterTheMemo) {
  // Every memo shares one shard-lock class, and none is held while
  // `compute` runs: a compute may call back into the same one-shard cache
  // and into another instance. A held lock would deadlock here, so a
  // watchdog turns a hang into a failure.
  DocumentResultCache::Options options;
  options.num_shards = 1;
  DocumentResultCache cache(options);
  DocumentResultCache other(options);
  std::future<std::string> outer = std::async(std::launch::async, [&] {
    return cache
        .FetchOrCompute(memo::JoinKey({"outer", "fp"}),
                        [&] {
                          auto inner = cache.FetchOrCompute(
                              memo::JoinKey({"inner", "fp"}),
                              [] { return FakeFacts("inner"); });
                          auto peer = other.FetchOrCompute(
                              memo::JoinKey({"outer", "fp"}),
                              [] { return FakeFacts("peer"); });
                          EXPECT_EQ(inner->facts.front().doc_id, "inner");
                          EXPECT_EQ(peer->facts.front().doc_id, "peer");
                          return FakeFacts("outer");
                        })
        ->facts.front()
        .doc_id;
  });
  if (outer.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    ADD_FAILURE() << "a compute re-entering the memo deadlocked";
    std::_Exit(1);
  }
  EXPECT_EQ(outer.get(), "outer");
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(other.entry_count(), 1u);
}

TEST_F(ServiceTest, DocumentFactsApproxBytesGrowsWithContent) {
  DocumentResult r = engine_->ProcessDocument(dataset_->wiki_eval.front().doc);
  DocumentFacts facts =
      engine_->canonicalizer().Extract(r.graph, r.densified, r.annotated);
  ASSERT_FALSE(facts.facts.empty());
  EXPECT_GT(facts.ApproxBytes(), DocumentFacts().ApproxBytes());
  DocumentFacts more = facts;
  more.facts.push_back(facts.facts.front());
  EXPECT_GT(more.ApproxBytes(), facts.ApproxBytes());
  const size_t before = more.ApproxBytes();
  more.clusters.push_back({0, "Zanthor Vexwing", {"Zanthor Vexwing"}, {}});
  EXPECT_GT(more.ApproxBytes(), before);
}

TEST_F(ServiceTest, DocTierEntriesStayCompact) {
  // The doc tier caches each document's canonical facts, a few KB apiece;
  // a whole DocumentResult (graph, tokens, annotations) is ~33 KB.
  // Re-caching the intermediate artifacts would blow this bound.
  KbService service(engine_, search_);
  std::vector<const Document*> docs;
  for (const GoldDocument& gd : dataset_->wiki_eval) docs.push_back(&gd.doc);
  (void)service.BuildKb(docs);
  ASSERT_EQ(service.cache().entry_count(), docs.size());
  EXPECT_LT(service.cache().ApproxBytesUsed() / service.cache().entry_count(),
            size_t{16} << 10);
}

TEST_F(ServiceTest, FingerprintSeparatesResultChangingConfigs) {
  EngineConfig base;

  // Scheduling-only knobs must NOT perturb the fingerprint: num_threads
  // never changes results (the merge is order-preserving).
  EngineConfig threads = base;
  threads.num_threads = 8;
  EXPECT_EQ(base.Fingerprint(), threads.Fingerprint());

  // Every result-changing field must perturb it. One mutation per field.
  std::vector<std::pair<const char*, EngineConfig>> mutants;
  auto add = [&](const char* name, void (*mutate)(EngineConfig*)) {
    EngineConfig c = base;
    mutate(&c);
    mutants.emplace_back(name, c);
  };
  add("mode", [](EngineConfig* c) { c->mode = InferenceMode::kPipeline; });
  add("alpha1", [](EngineConfig* c) { c->params.alpha1 += 0.01; });
  add("alpha2", [](EngineConfig* c) { c->params.alpha2 += 0.01; });
  add("alpha3", [](EngineConfig* c) { c->params.alpha3 += 0.01; });
  add("alpha4", [](EngineConfig* c) { c->params.alpha4 += 0.01; });
  add("confidence_threshold",
      [](EngineConfig* c) { c->canon.confidence_threshold += 0.01; });
  add("emerging_threshold",
      [](EngineConfig* c) { c->canon.emerging_threshold += 0.01; });
  add("triples_only", [](EngineConfig* c) { c->canon.triples_only = true; });
  add("pronoun_window", [](EngineConfig* c) { ++c->graph.pronoun_window; });
  add("pronoun_coreference",
      [](EngineConfig* c) { c->graph.pronoun_coreference = false; });
  add("max_candidates", [](EngineConfig* c) { ++c->graph.max_candidates; });
  add("parser_mode",
      [](EngineConfig* c) { c->parser_mode = ParserMode::kAdaptive; });
  add("parser_complexity_threshold",
      [](EngineConfig* c) { c->parser_complexity_threshold += 0.5; });

  // Each mutant differs from base AND from every other mutant (no two
  // fields may alias to the same fingerprint bytes).
  for (size_t i = 0; i < mutants.size(); ++i) {
    EXPECT_NE(base.Fingerprint(), mutants[i].second.Fingerprint())
        << mutants[i].first << " does not perturb the fingerprint";
    for (size_t j = i + 1; j < mutants.size(); ++j) {
      EXPECT_NE(mutants[i].second.Fingerprint(),
                mutants[j].second.Fingerprint())
          << mutants[i].first << " aliases " << mutants[j].first;
    }
  }
}

}  // namespace
}  // namespace qkbfly
