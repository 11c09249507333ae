// Fact-store & query-tier tests: OnTheFlyKb serialization round-trip, the
// sharded FactStore (merge semantics, epoch staleness, JSONL snapshot
// save/load), the QaPairIndex, the query-level cache tier in KbService
// (cold / doc-warm / query-warm byte-identity, also under 4-thread
// concurrency — labeled tsan), epoch-bump invalidation of both tiers, and
// answer reproduction across a simulated process restart.
#include "store/fact_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/kb_service.h"
#include "store/qa_pair_index.h"
#include "store/query_cache.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

class StoreTest : public ::testing::Test {
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
    engine_ = new QkbflyEngine(dataset_->repository.get(), &dataset_->patterns,
                               &dataset_->stats, EngineConfig());
  }

  /// Each test gets a private SearchEngine so epoch bumps don't leak
  /// between tests (the document stores are shared read-only).
  static std::unique_ptr<SearchEngine> MakeSearch() {
    return std::make_unique<SearchEngine>(wiki_, news_);
  }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "qkbfly_store_" + name;
  }

  static SynthDataset* dataset_;
  static DocumentStore* wiki_;
  static DocumentStore* news_;
  static QkbflyEngine* engine_;
};

SynthDataset* StoreTest::dataset_ = nullptr;
DocumentStore* StoreTest::wiki_ = nullptr;
DocumentStore* StoreTest::news_ = nullptr;
QkbflyEngine* StoreTest::engine_ = nullptr;

// ---------------------------------------------------------------------------
// Satellite (a): OnTheFlyKb::Serialize / Deserialize round-trip.
// ---------------------------------------------------------------------------

TEST_F(StoreTest, KbSerializeRoundTripsByteForByte) {
  std::vector<const Document*> docs;
  for (const GoldDocument& gd : dataset_->wiki_eval) docs.push_back(&gd.doc);
  OnTheFlyKb kb = engine_->BuildKb(docs);
  ASSERT_GT(kb.size(), 0u);

  std::string bytes = kb.Serialize();
  OnTheFlyKb rebuilt = engine_->MakeKb();
  Status status = rebuilt.Deserialize(bytes);
  ASSERT_TRUE(status.ok()) << status;

  // The round-trip contract: re-serialization is byte-identical, and the
  // rebuilt KB matches fact by fact.
  EXPECT_EQ(rebuilt.Serialize(), bytes);
  ASSERT_EQ(rebuilt.size(), kb.size());
  for (size_t i = 0; i < kb.size(); ++i) {
    EXPECT_EQ(rebuilt.FactToString(rebuilt.facts()[i]),
              kb.FactToString(kb.facts()[i]));
  }
  EXPECT_EQ(rebuilt.emerging_entities().size(), kb.emerging_entities().size());
}

TEST_F(StoreTest, KbDeserializeRejectsBadInput) {
  OnTheFlyKb kb = engine_->MakeKb();
  EXPECT_FALSE(kb.Deserialize("not-a-kb\t1\n").ok());
  ASSERT_TRUE(kb.Deserialize("qkbfly-kb\t1\n").ok());  // empty KB is valid

  // A non-empty KB refuses to deserialize over itself.
  std::vector<const Document*> docs{&dataset_->wiki_eval.front().doc};
  OnTheFlyKb built = engine_->BuildKb(docs);
  ASSERT_GT(built.size(), 0u);
  EXPECT_EQ(built.Deserialize("qkbfly-kb\t1\n").code(),
            StatusCode::kFailedPrecondition);

  // Dangling relation / entity references fail line-numbered.
  OnTheFlyKb fresh = engine_->MakeKb();
  Status bad = fresh.Deserialize("qkbfly-kb\t1\nR\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("line 2"), std::string::npos) << bad;
  EXPECT_EQ(fresh.size(), 0u);  // failed loads leave the KB empty
}

// ---------------------------------------------------------------------------
// QaPairIndex.
// ---------------------------------------------------------------------------

TEST(QaPairIndexTest, NormalizeAndParaphraseKeys) {
  EXPECT_EQ(QaPairIndex::NormalizeQuestion("  Who married ANN?! "),
            "who married ann");
  EXPECT_EQ(QaPairIndex::NormalizeQuestion("who-married_ann"),
            "who married ann");
  EXPECT_EQ(QaPairIndex::ParaphraseKey("who married ann"), "ann married who");
  EXPECT_EQ(QaPairIndex::ParaphraseKey("ann married who who"),
            "ann married who");
}

TEST(QaPairIndexTest, EpochExactLookupAndParaphraseFallback) {
  QaPairIndex index;
  QaPair pair;
  pair.question = "who married ann";
  pair.fingerprint = "fp";
  pair.epoch = 1;
  pair.answers = {"bob"};
  index.Record(pair);

  EXPECT_NE(index.Find("who married ann", 1, "fp"), nullptr);
  EXPECT_EQ(index.Find("who married ann", 2, "fp"), nullptr);  // stale
  EXPECT_EQ(index.Find("who married ann", 1, "other"), nullptr);
  EXPECT_EQ(index.Find("ann married who", 1, "fp"), nullptr);
  EXPECT_NE(index.FindParaphrase("ann married who", 1, "fp"), nullptr);

  index.DropStale(2);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.FindParaphrase("ann married who", 1, "fp"), nullptr);
}

// ---------------------------------------------------------------------------
// FactStore: merge semantics, staleness, snapshot persistence.
// ---------------------------------------------------------------------------

FactRecord MakeRecord(const std::string& subject, const std::string& relation,
                      const std::string& object, CorpusEpoch epoch,
                      double confidence = 0.5) {
  FactRecord r;
  r.subject = subject;
  r.relation = relation;
  r.args = {object};
  r.confidence = confidence;
  r.epoch = epoch;
  r.doc_ids = {"doc-" + subject};
  r.queries = {subject};
  return r;
}

TEST(FactStoreTest, IngestMergesProvenanceAndConfidence) {
  FactStore store;
  EXPECT_TRUE(store.Ingest(MakeRecord("ann", "married", "bob", 1, 0.4)));
  FactRecord again = MakeRecord("ann", "married", "bob", 1, 0.9);
  again.doc_ids = {"doc-x"};
  again.queries = {"bob"};
  EXPECT_FALSE(store.Ingest(again));  // merge, not a new key
  EXPECT_EQ(store.fact_count(), 1u);

  std::vector<FactRecord> facts = store.LookupSubject("ann");
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_DOUBLE_EQ(facts[0].confidence, 0.9);
  EXPECT_EQ(facts[0].doc_ids, (std::vector<std::string>{"doc-ann", "doc-x"}));
  EXPECT_EQ(facts[0].queries, (std::vector<std::string>{"ann", "bob"}));

  // Negated variant is a distinct key.
  FactRecord negated = MakeRecord("ann", "married", "bob", 1);
  negated.negated = true;
  EXPECT_TRUE(store.Ingest(negated));
  EXPECT_EQ(store.fact_count(), 2u);
}

TEST(FactStoreTest, EpochBumpStalesRecords) {
  FactStore store;
  (void)store.Ingest(MakeRecord("ann", "married", "bob", 1));
  ASSERT_EQ(store.fact_count(), 1u);
  store.SetEpoch(2);
  EXPECT_EQ(store.fact_count(), 0u);
  EXPECT_TRUE(store.LookupSubject("ann").empty());
  EXPECT_TRUE(store.Snapshot().empty());

  // A stale-on-arrival record is refused; a fresh one lands.
  EXPECT_FALSE(store.Ingest(MakeRecord("ann", "married", "bob", 1)));
  EXPECT_TRUE(store.Ingest(MakeRecord("ann", "married", "bob", 2)));
  EXPECT_EQ(store.fact_count(), 1u);
}

TEST(FactStoreTest, SaveLoadRoundTripsSnapshotBytes) {
  std::string path = ::testing::TempDir() + "qkbfly_store_roundtrip.jsonl";
  FactStore store;
  (void)store.Ingest(MakeRecord("ann", "married", "bob", 1, 0.75));
  (void)store.Ingest(MakeRecord("bob", "born in", "Springfield\t\"1999\"", 1));
  QaPair pair;
  pair.question = "who married ann";
  pair.fingerprint = "fp";
  pair.epoch = 1;
  pair.documents = 3;
  pair.answers = {"<ann, married, bob>"};
  pair.kb_bytes = "qkbfly-kb\t1\n";
  store.qa_pairs().Record(pair);
  ASSERT_TRUE(store.Save(path).ok());

  FactStore loaded;
  Status status = loaded.Load(path);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(loaded.fact_count(), store.fact_count());
  EXPECT_EQ(loaded.epoch(), store.epoch());
  ASSERT_EQ(loaded.qa_pairs().size(), 1u);
  auto found = loaded.FindQaPair("who married ann", 1, "fp", false);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->answers, pair.answers);
  EXPECT_EQ(found->kb_bytes, pair.kb_bytes);

  // Deterministic persistence: a loaded store saves identical bytes.
  std::string path2 = path + ".resave";
  ASSERT_TRUE(loaded.Save(path2).ok());
  std::ifstream a(path), b(path2);
  std::string bytes_a((std::istreambuf_iterator<char>(a)),
                      std::istreambuf_iterator<char>());
  std::string bytes_b((std::istreambuf_iterator<char>(b)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_FALSE(bytes_a.empty());
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

// Pins the snapshot escaper byte by byte: quote and backslash are escaped,
// newline / CR / tab get their short forms, every other byte below 0x20 is
// \u00xx (lowercase hex), and everything else, 0x7f-0xff included, is raw.
TEST(FactStoreTest, SaveEscapesEveryByte) {
  std::string all_bytes;
  std::string expected = "\"";
  for (int b = 0; b < 256; ++b) {
    char c = static_cast<char>(b);
    all_bytes.push_back(c);
    if (c == '"') {
      expected += "\\\"";
    } else if (c == '\\') {
      expected += "\\\\";
    } else if (c == '\n') {
      expected += "\\n";
    } else if (c == '\r') {
      expected += "\\r";
    } else if (c == '\t') {
      expected += "\\t";
    } else if (b < 0x20) {
      const char* hex = "0123456789abcdef";
      expected += "\\u00";
      expected += hex[b >> 4];
      expected += hex[b & 0xF];
    } else {
      expected += c;
    }
  }
  expected += "\"";

  std::string path = ::testing::TempDir() + "qkbfly_store_bytes.jsonl";
  FactStore store;
  (void)store.Ingest(MakeRecord(all_bytes, "r", "o", 1));
  ASSERT_TRUE(store.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(bytes.find("\"subject\":" + expected + ",\"relation\""),
            std::string::npos);

  FactStore loaded;
  Status status = loaded.Load(path);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(loaded.LookupSubject(all_bytes).size(), 1u);
  std::remove(path.c_str());
}

TEST(FactStoreTest, LoadRejectsSchemaViolations) {
  std::string path = ::testing::TempDir() + "qkbfly_store_bad.jsonl";
  auto write = [&](const std::string& contents) {
    std::ofstream f(path, std::ios::trunc);
    f << contents;
  };
  FactStore store;

  write("{\"qkbfly_fact_store\":2,\"epoch\":1}\n");
  EXPECT_FALSE(store.Load(path).ok());  // wrong version

  write("{\"qkbfly_fact_store\":1,\"epoch\":1}\n{\"kind\":\"fact\"}\n");
  Status status = store.Load(path);
  EXPECT_FALSE(status.ok());  // missing fields
  EXPECT_NE(status.message().find("line 2"), std::string::npos) << status;
  EXPECT_EQ(store.fact_count(), 0u);  // failed loads leave the store empty

  write(
      "{\"qkbfly_fact_store\":1,\"epoch\":1}\n"
      "{\"kind\":\"fact\",\"subject\":\"a\",\"relation\":\"r\",\"args\":[],"
      "\"negated\":false,\"confidence\":0.5,\"epoch\":1,\"docs\":[],"
      "\"queries\":[],\"extra\":true}\n");
  EXPECT_FALSE(store.Load(path).ok());  // unknown extra key

  // Epochs and document counts are exact non-negative integers: anything
  // else is a line-numbered error, never a cast.
  const std::string kHeader = "{\"qkbfly_fact_store\":1,\"epoch\":1}\n";
  auto fact = [](const std::string& epoch) {
    return "{\"kind\":\"fact\",\"subject\":\"a\",\"relation\":\"r\","
           "\"args\":[],\"negated\":false,\"confidence\":0.5,\"epoch\":" +
           epoch + ",\"docs\":[],\"queries\":[]}\n";
  };
  auto qa = [](const std::string& epoch, const std::string& documents) {
    return "{\"kind\":\"qa\",\"question\":\"q\",\"fingerprint\":\"fp\","
           "\"epoch\":" + epoch + ",\"documents\":" + documents +
           ",\"answers\":[],\"kb\":\"\"}\n";
  };
  const std::pair<std::string, int> kBadNumbers[] = {
      {"{\"qkbfly_fact_store\":1,\"epoch\":1e30}\n", 1},
      {"{\"qkbfly_fact_store\":1,\"epoch\":1.5}\n", 1},
      {"{\"qkbfly_fact_store\":1,\"epoch\":0}\n", 1},
      {kHeader + fact("-3"), 2},
      {kHeader + fact("1e30"), 2},
      {kHeader + fact("1.5"), 2},
      {kHeader + fact("18446744073709551616"), 2},
      {kHeader + qa("1", "-1"), 2},
      {kHeader + qa("1", "1.5"), 2},
      {kHeader + qa("-3", "1"), 2},
  };
  for (const auto& [contents, line] : kBadNumbers) {
    write(contents);
    Status bad = store.Load(path);
    EXPECT_FALSE(bad.ok()) << contents;
    EXPECT_NE(bad.message().find("line " + std::to_string(line)),
              std::string::npos)
        << bad;
  }
  write(kHeader + fact("18446744073709551615") + qa("1", "3"));
  EXPECT_TRUE(store.Load(path).ok());  // the full uint64_t range loads
  EXPECT_EQ(store.fact_count(), 1u);

  EXPECT_EQ(store.Load(path + ".does-not-exist").code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// QueryKbCache mechanics.
// ---------------------------------------------------------------------------

CachedAnswer FakeAnswer(const std::string& tag) {
  CachedAnswer a;
  a.kb_bytes = "qkbfly-kb\t1\n";
  a.answers = {"answer for " + tag};
  a.documents = 1;
  return a;
}

TEST(QueryKbCacheTest, SingleFlightComputesOnce) {
  QueryKbCache cache;
  std::string key = QueryKey("who married ann", 1, "fp");
  std::atomic<int> computations{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      auto result = cache.FetchOrCompute(key, [&] {
        ++computations;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return FakeAnswer("ann");
      });
      EXPECT_EQ(result->documents, 1u);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(computations.load(), 1);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(QueryKbCacheTest, KeySeparatesEpochAndFingerprint) {
  QueryKbCache cache;
  int computations = 0;
  auto compute = [&] {
    ++computations;
    return FakeAnswer("q");
  };
  (void)cache.FetchOrCompute(QueryKey("q", 1, "fp"), compute);
  (void)cache.FetchOrCompute(QueryKey("q", 2, "fp"), compute);
  (void)cache.FetchOrCompute(QueryKey("q", 1, "fp2"), compute);
  (void)cache.FetchOrCompute(QueryKey("q", 1, "fp"), compute);
  EXPECT_EQ(computations, 3);
}

TEST(QueryKbCacheTest, EvictAllIsIdempotentPerEpoch) {
  QueryKbCache cache;
  (void)cache.FetchOrCompute(QueryKey("q", 1, "fp"),
                             [] { return FakeAnswer("q"); });
  ASSERT_EQ(cache.entry_count(), 1u);
  cache.EvictAll(1);  // construction epoch is 0, so 1 advances and clears
  EXPECT_EQ(cache.entry_count(), 0u);
  uint64_t evictions = cache.stats().evictions;
  cache.EvictAll(1);  // no-op: already at epoch 1
  EXPECT_EQ(cache.stats().evictions, evictions);
}

// ---------------------------------------------------------------------------
// Tentpole + satellites (b)/(c): the serving-layer query tier.
// ---------------------------------------------------------------------------

TEST_F(StoreTest, ColdDocWarmAndQueryWarmAnswersAreByteIdentical) {
  auto search = MakeSearch();
  KbService service(engine_, search.get());
  std::string query = dataset_->wiki_eval.front().doc.title;

  KbService::QueryResult cold = service.Answer(query);
  ASSERT_GT(cold.kb.size(), 0u);
  EXPECT_FALSE(cold.stats.query_cache_hit);
  EXPECT_EQ(cold.stats.cache.misses, cold.stats.documents);

  // Doc-warm: drop the query tier so the doc tier serves the documents.
  service.ClearQueryTier();
  KbService::QueryResult doc_warm = service.Answer(query);
  EXPECT_FALSE(doc_warm.stats.query_cache_hit);
  EXPECT_EQ(doc_warm.stats.cache.hits, doc_warm.stats.documents);

  // Query-warm: served from the query tier, no doc-tier traffic at all.
  KbService::QueryResult query_warm = service.Answer(query);
  EXPECT_TRUE(query_warm.stats.query_cache_hit);
  EXPECT_EQ(query_warm.stats.cache.hits + query_warm.stats.cache.misses, 0u);

  EXPECT_EQ(doc_warm.kb.Serialize(), cold.kb.Serialize());
  EXPECT_EQ(query_warm.kb.Serialize(), cold.kb.Serialize());
  EXPECT_EQ(doc_warm.answers, cold.answers);
  EXPECT_EQ(query_warm.answers, cold.answers);
  EXPECT_EQ(query_warm.stats.documents, cold.stats.documents);

  // The store accumulated the query's facts alongside.
  EXPECT_GT(service.fact_store()->fact_count(), 0u);
}

TEST_F(StoreTest, ConcurrentAnswersThroughQueryTierAreByteIdentical) {
  auto search = MakeSearch();
  KbService service(engine_, search.get());
  std::vector<std::string> queries;
  for (const GoldDocument& gd : dataset_->wiki_eval) {
    if (queries.size() >= 4) break;
    queries.push_back(gd.doc.title);
  }

  // Expected bytes from a serial pass (these answers are query-cache misses).
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    expected.push_back(service.Answer(q).kb.Serialize());
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        size_t qi = static_cast<size_t>(t + round) % queries.size();
        KbService::QueryResult r = service.Answer(queries[qi]);
        if (r.kb.Serialize() != expected[qi]) ++mismatches;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Every concurrent answer was a query-tier hit (the serial pass warmed it).
  EXPECT_EQ(service.query_cache().stats().hits,
            static_cast<uint64_t>(kThreads * kRounds));
}

TEST_F(StoreTest, CorpusEpochBumpEmptiesBothCacheTiers) {
  auto search = MakeSearch();
  KbService service(engine_, search.get());
  std::string query = dataset_->wiki_eval.front().doc.title;

  KbService::QueryResult cold = service.Answer(query);
  ASSERT_GT(service.query_cache().entry_count(), 0u);
  ASSERT_GT(service.cache().entry_count(), 0u);
  ASSERT_GT(service.fact_store()->fact_count(), 0u);

  search->BumpEpoch();
  KbService::QueryResult after = service.Answer(query);

  // The bump emptied both tiers, so this answer re-ran the full pipeline...
  EXPECT_FALSE(after.stats.query_cache_hit);
  EXPECT_EQ(after.stats.cache.misses, after.stats.documents);
  EXPECT_EQ(after.stats.cache.hits, 0u);
  // ...over the unchanged corpus, so the result is still byte-identical.
  EXPECT_EQ(after.kb.Serialize(), cold.kb.Serialize());
  // Old-epoch facts went stale; the re-answer re-ingested fresh ones.
  for (const FactRecord& r : service.fact_store()->Snapshot()) {
    EXPECT_EQ(r.epoch, search->epoch());
  }
}

TEST_F(StoreTest, StoreSnapshotReproducesAnswersAcrossRestart) {
  std::string path = TempPath("restart.jsonl");
  std::string query = dataset_->wiki_eval.front().doc.title;
  std::string cold_bytes;
  std::vector<std::string> cold_answers;
  {
    auto search = MakeSearch();
    KbService service(engine_, search.get());
    KbService::QueryResult cold = service.Answer(query);
    ASSERT_GT(cold.kb.size(), 0u);
    cold_bytes = cold.kb.Serialize();
    cold_answers = cold.answers;
    ASSERT_TRUE(service.fact_store()->Save(path).ok());
  }

  // "Restart": a fresh service over a store loaded from the snapshot, with
  // serve_from_store on — the answer must come from the persisted QA pair
  // without touching retrieval or the doc tier, byte-identical to the
  // original cold build.
  {
    FactStore loaded;
    ASSERT_TRUE(loaded.Load(path).ok());
    auto search = MakeSearch();
    KbServiceOptions options;
    options.fact_store = &loaded;
    options.serve_from_store = true;
    KbService service(engine_, search.get(), options);
    KbService::QueryResult replayed = service.Answer(query);
    EXPECT_TRUE(replayed.stats.served_from_store);
    EXPECT_EQ(replayed.stats.cache.hits + replayed.stats.cache.misses, 0u);
    EXPECT_EQ(replayed.kb.Serialize(), cold_bytes);
    EXPECT_EQ(replayed.answers, cold_answers);
  }
  std::remove(path.c_str());
}

TEST_F(StoreTest, ServiceIngestsRenderedFactsWithProvenance) {
  auto search = MakeSearch();
  KbService service(engine_, search.get());
  std::string query = dataset_->wiki_eval.front().doc.title;
  KbService::QueryResult result = service.Answer(query);
  ASSERT_GT(result.kb.size(), 0u);

  std::vector<FactRecord> snapshot = service.fact_store()->Snapshot();
  ASSERT_GT(snapshot.size(), 0u);
  for (const FactRecord& r : snapshot) {
    EXPECT_FALSE(r.subject.empty());
    EXPECT_FALSE(r.relation.empty());
    EXPECT_EQ(r.queries, std::vector<std::string>{query});
    EXPECT_FALSE(r.doc_ids.empty());
  }
}

}  // namespace
}  // namespace qkbfly
