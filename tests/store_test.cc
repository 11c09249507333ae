// Fact-store & query-tier tests: OnTheFlyKb serialization round-trip (plus
// a seeded mutation test of Deserialize — labeled asan), the sharded
// FactStore (merge semantics, epoch staleness, JSONL snapshot
// save/load and a pinned snapshot digest), number spelling in both writers
// against printf, the query tier of QA pairs (epoch-exact lookup, its byte
// bound under 10x its budget of distinct questions, and in KbService cold /
// doc-warm / query-warm byte-identity, also under 4-thread concurrency —
// labeled tsan), the one immutable KB that query-tier hits share, racing
// epoch bumps, epoch-bump invalidation of both tiers, answer reproduction
// across a simulated process restart, and a cold fallback when a restored
// QA pair's KB bytes are corrupt.
#include "store/fact_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mutate.h"
#include "obs/metrics.h"
#include "service/kb_service.h"
#include "store/query_cache.h"
#include "synth/dataset.h"
#include "util/rng.h"
#include "util/string_util.h"

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
  // Serialize reserves its exact size for text without escapes, so the
  // string it returns holds no spare capacity.
  ASSERT_EQ(bytes.find('\\'), std::string::npos);
  EXPECT_EQ(bytes.capacity(), bytes.size());
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

  // Integers that parse to another id or re-serialize differently: a
  // relation id past 2^32 (it would narrow onto a real relation) and a
  // leading zero.
  std::string bytes = built.Serialize();
  size_t at = bytes.find("\nF\t");
  ASSERT_NE(at, std::string::npos);
  at += 3;
  size_t end = bytes.find('\t', at);
  std::string relation = bytes.substr(at, end - at);
  for (const std::string& alias :
       {std::to_string(std::stoull(relation) + (uint64_t{1} << 32)),
        "0" + relation}) {
    std::string aliased = bytes;
    aliased.replace(at, end - at, alias);
    OnTheFlyKb rebuilt = engine_->MakeKb();
    EXPECT_FALSE(rebuilt.Deserialize(aliased).ok()) << alias;
    EXPECT_EQ(rebuilt.Serialize(), "qkbfly-kb\t1\n") << alias;
  }
}

/// Splits Serialize()-shaped text into records and fields.
std::vector<std::vector<std::string>> Records(const std::string& text) {
  std::vector<std::vector<std::string>> records;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::vector<std::string>& fields = records.emplace_back();
    size_t start = pos;
    for (size_t i = pos; i <= eol; ++i) {
      if (i == eol || text[i] == '\t') {
        fields.push_back(text.substr(start, i - start));
        start = i + 1;
      }
    }
    pos = eol + 1;
  }
  return records;
}

/// Empty when `got` matches `want` field for field, a fact's confidence
/// (field 4 of an F record) compared as a parsed double; else the first
/// difference.
std::string FieldDiff(const std::string& want, const std::string& got) {
  std::vector<std::vector<std::string>> a = Records(want);
  std::vector<std::vector<std::string>> b = Records(got);
  if (a.size() != b.size()) return "record count differs";
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) {
      return "field count differs in record " + std::to_string(r);
    }
    for (size_t f = 0; f < a[r].size(); ++f) {
      bool same = a[r][0] == "F" && f == 4
                      ? std::strtod(a[r][f].c_str(), nullptr) ==
                            std::strtod(b[r][f].c_str(), nullptr)
                      : a[r][f] == b[r][f];
      if (!same) {
        return "record " + std::to_string(r) + " field " + std::to_string(f) +
               ": \"" + a[r][f] + "\" vs \"" + b[r][f] + "\"";
      }
    }
  }
  return "";
}

// Seeded mutation test of OnTheFlyKb::Deserialize, the reader behind every
// query-tier hit and store-served answer: each mutant of a real KB either
// fails and leaves the KB empty, or re-serializes to itself field for field.
TEST_F(StoreTest, KbDeserializeMutantsFailCleanlyOrRoundTrip) {
  std::vector<const Document*> docs;
  for (size_t i = 0; i < 3; ++i) docs.push_back(&dataset_->wiki_eval[i].doc);
  const std::string seed = engine_->BuildKb(docs).Serialize();
  ASSERT_GT(Records(seed).size(), 10u);

  constexpr std::string_view kKbSignificant = "\t\n\r\\-+.0123456789eEFER";
  Rng rng(20261017);
  size_t accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string mutant = Mutate(seed, kKbSignificant, rng);
    OnTheFlyKb kb = engine_->MakeKb();
    if (!kb.Deserialize(mutant).ok()) {
      ASSERT_EQ(kb.Serialize(), "qkbfly-kb\t1\n") << "round " << round;
      continue;
    }
    ++accepted;
    std::string diff = FieldDiff(mutant, kb.Serialize());
    ASSERT_TRUE(diff.empty()) << "round " << round << ": " << diff;
  }
  // Most mutants land in free-text fields and stay valid.
  EXPECT_GT(accepted, 0u);
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

  std::vector<FactRecord> facts = store.Snapshot();
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
  EXPECT_TRUE(store.Snapshot().empty());

  // A stale-on-arrival record is refused; a fresh one lands.
  EXPECT_FALSE(store.Ingest(MakeRecord("ann", "married", "bob", 1)));
  EXPECT_TRUE(store.Ingest(MakeRecord("ann", "married", "bob", 2)));
  EXPECT_EQ(store.fact_count(), 1u);
}

// Threads set shuffled epochs at once; whatever the interleaving, the epoch
// only moves forward, so it ends at the largest one set.
TEST(FactStoreTest, ConcurrentSetEpochEndsAtTheMaximum) {
  constexpr int kThreads = 4;
  constexpr CorpusEpoch kPerThread = 64;
  constexpr CorpusEpoch kMax = 1 + kThreads * kPerThread;
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    std::vector<CorpusEpoch> epochs;
    for (CorpusEpoch e = 2; e <= kMax; ++e) epochs.push_back(e);
    rng.Shuffle(&epochs);
    FactStore store;
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (size_t i = static_cast<size_t>(t); i < epochs.size();
             i += kThreads) {
          store.SetEpoch(epochs[i]);
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(store.epoch(), kMax) << "round " << round;
  }
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
  (void)store.answers().Insert(QueryKey(pair.question, pair.epoch, "fp"), pair);
  ASSERT_TRUE(store.Save(path).ok());

  FactStore loaded;
  Status status = loaded.Load(path);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(loaded.fact_count(), store.fact_count());
  EXPECT_EQ(loaded.epoch(), store.epoch());
  std::vector<std::shared_ptr<const QaPair>> pairs = loaded.answers().Values();
  ASSERT_EQ(pairs.size(), 1u);
  const QaPair* found = pairs[0].get();
  EXPECT_EQ(found->question, pair.question);
  EXPECT_EQ(found->epoch, 1u);
  EXPECT_EQ(found->fingerprint, "fp");
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
  std::vector<FactRecord> facts = loaded.Snapshot();
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].subject, all_bytes);
  std::remove(path.c_str());
}

// Pins FactStore::Save's bytes: a store holding the facts of the 12-article
// dataset plus one recorded QA pair (whose KB Save serializes) hashes to a
// fixed 64-bit FNV-1a digest. SaveLoadRoundTripsSnapshotBytes only checks
// that Save agrees with itself; this holds every field's spelling, the
// confidences' 17 digits included, to the reference bytes. Moving the digest
// is a deliberate act and must be noted in CHANGES.md.
TEST_F(StoreTest, SaveSnapshotDigestIsPinned) {
  std::vector<const Document*> docs;
  for (const GoldDocument& gd : dataset_->wiki_eval) docs.push_back(&gd.doc);
  auto kb = std::make_shared<const OnTheFlyKb>(engine_->BuildKb(docs));
  ASSERT_GT(kb->size(), 0u);
  FactStore store;
  ASSERT_GT(store.IngestKb(*kb, "wiki eval", 1), 0u);
  QaPair pair;
  pair.question = "wiki eval";
  pair.fingerprint = "fp";
  pair.epoch = 1;
  pair.documents = docs.size();
  for (size_t i = 0; i < 3 && i < kb->size(); ++i) {
    pair.answers.push_back(kb->FactToString(kb->facts()[i]));
  }
  pair.kb = kb;
  (void)store.answers().Insert(QueryKey(pair.question, pair.epoch, "fp"), pair);

  std::string path = TempPath("digest.jsonl");
  ASSERT_TRUE(store.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  uint64_t digest = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    digest ^= c;
    digest *= 0x100000001b3ull;
  }
  std::printf("store snapshot bytes=%zu digest=0x%016llx\n", bytes.size(),
              static_cast<unsigned long long>(digest));
  EXPECT_EQ(digest, 0x7be277106800e6c8ull);
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
// Number spelling: Serialize and Save format numbers with std::to_chars and
// must spell every one exactly as printf does ("%.17g", "%d", "%u", "%llu").
// ---------------------------------------------------------------------------

template <typename... Args>
std::string Printf(const char* format, Args... args) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

const double kEdgeConfidences[] = {0.0, 1.0, 0.1, 1.0 / 3, 5e-324, DBL_MAX};

TEST_F(StoreTest, KbWriterSpellsNumbersAsPrintfDoes) {
  const uint32_t kIds[] = {0, UINT32_MAX};
  const int kSentences[] = {-1, INT_MIN, INT_MAX};
  constexpr int kNerTypes = static_cast<int>(NerType::kNumber) + 1;
  OnTheFlyKb kb = engine_->MakeKb();
  for (int ner = 0; ner < kNerTypes; ++ner) {
    (void)kb.AddEmergingEntity("e", {"m"}, static_cast<NerType>(ner));
  }
  int n = 0;
  for (double confidence : kEdgeConfidences) {
    for (uint32_t id : kIds) {
      for (int sentence : kSentences) {
        Fact f;
        f.relation = id;
        f.confidence = confidence;
        f.sentence = sentence;
        // A distinct literal subject keeps AddFact from merging facts.
        f.subject.surface = std::to_string(n);
        f.subject.entity = id;
        f.subject.emerging = UINT32_MAX - id;
        f.subject.ner = static_cast<NerType>(n % kNerTypes);
        FactArg arg;
        arg.kind = static_cast<FactArg::Kind>(n % 3);
        arg.entity = UINT32_MAX - id;
        arg.emerging = id;
        arg.surface = "a";
        arg.ner = static_cast<NerType>((n + 1) % kNerTypes);
        f.args.push_back(arg);
        kb.AddFact(std::move(f));
        ++n;
      }
    }
  }
  ASSERT_EQ(kb.size(), static_cast<size_t>(n));

  std::vector<std::vector<std::string>> records = Records(kb.Serialize());
  ASSERT_EQ(records.size(), 1 + kNerTypes + kb.size());
  for (int ner = 0; ner < kNerTypes; ++ner) {
    EXPECT_EQ(records[1 + ner][1], Printf("%d", ner));
  }
  for (size_t i = 0; i < kb.size(); ++i) {
    const Fact& f = kb.facts()[i];
    const std::vector<std::string>& fields = records[1 + kNerTypes + i];
    ASSERT_EQ(fields.size(), 7 + 2 * 6u);
    EXPECT_EQ(fields[1], Printf("%u", f.relation));
    EXPECT_EQ(fields[4], Printf("%.17g", f.confidence));
    EXPECT_EQ(fields[6], Printf("%d", f.sentence));
    const FactArg* args[] = {&f.subject, &f.args[0]};
    for (size_t a = 0; a < 2; ++a) {
      size_t at = 7 + 6 * a;
      EXPECT_EQ(fields[at], Printf("%d", static_cast<int>(args[a]->kind)));
      EXPECT_EQ(fields[at + 1], Printf("%u", args[a]->entity));
      EXPECT_EQ(fields[at + 2], Printf("%u", args[a]->emerging));
      EXPECT_EQ(fields[at + 5], Printf("%d", static_cast<int>(args[a]->ner)));
    }
  }

  // The reader takes every edge confidence back bit for bit.
  OnTheFlyKb valid = engine_->MakeKb();
  for (double confidence : kEdgeConfidences) {
    Fact f;
    f.relation = 0;
    f.confidence = confidence;
    f.subject.surface = Printf("%.17g", confidence);
    f.args.push_back(f.subject);
    valid.AddFact(std::move(f));
  }
  std::string bytes = valid.Serialize();
  OnTheFlyKb rebuilt = engine_->MakeKb();
  Status status = rebuilt.Deserialize(bytes);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(rebuilt.Serialize(), bytes);
  ASSERT_EQ(rebuilt.size(), valid.size());
  for (size_t i = 0; i < valid.size(); ++i) {
    EXPECT_EQ(std::memcmp(&rebuilt.facts()[i].confidence,
                          &valid.facts()[i].confidence, sizeof(double)),
              0);
  }
}

TEST(FactStoreTest, SaveSpellsNumbersAsPrintfDoes) {
  const CorpusEpoch kEpochs[] = {1, uint64_t{UINT32_MAX} + 1, UINT64_MAX};
  const size_t kDocuments[] = {0, 1, SIZE_MAX};
  FactStore store;
  int n = 0;
  for (double confidence : kEdgeConfidences) {
    for (CorpusEpoch epoch : kEpochs) {
      (void)store.Ingest(
          MakeRecord(std::to_string(n++), "r", "o", epoch, confidence));
    }
  }
  for (size_t i = 0; i < std::size(kDocuments); ++i) {
    QaPair pair;
    pair.question = "q" + std::to_string(i);
    pair.epoch = kEpochs[i];
    pair.documents = kDocuments[i];
    (void)store.answers().Insert(QueryKey(pair.question, pair.epoch, ""), pair);
  }
  std::string path = ::testing::TempDir() + "qkbfly_store_numbers.jsonl";
  ASSERT_TRUE(store.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());

  EXPECT_EQ(bytes.find("{\"qkbfly_fact_store\":1,\"epoch\":1}\n"), 0u);
  for (double confidence : kEdgeConfidences) {
    for (CorpusEpoch epoch : kEpochs) {
      std::string fields = ",\"confidence\":" + Printf("%.17g", confidence) +
                           ",\"epoch\":" + Printf("%llu", epoch) + ",\"docs\"";
      EXPECT_NE(bytes.find(fields), std::string::npos) << fields;
    }
  }
  for (size_t i = 0; i < std::size(kDocuments); ++i) {
    std::string fields = ",\"epoch\":" + Printf("%llu", kEpochs[i]) +
                         ",\"documents\":" + Printf("%llu", kDocuments[i]) +
                         ",\"answers\"";
    EXPECT_NE(bytes.find(fields), std::string::npos) << fields;
  }
}

// Every double, NaN and infinity included, against "%.17g": 10^5 seeded
// random bit patterns.
TEST(FactStoreTest, ExactDoubleMatchesPrintfOnRandomBits) {
  Rng rng(20261019);
  for (int i = 0; i < 100000; ++i) {
    uint64_t bits = rng.Next();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    std::string got;
    AppendExactDouble(value, &got);
    ASSERT_EQ(got, Printf("%.17g", value)) << "bits 0x" << std::hex << bits;
  }
}

// ---------------------------------------------------------------------------
// QueryKbCache mechanics.
// ---------------------------------------------------------------------------

TEST(QueryKbCacheTest, NormalizeQuestion) {
  EXPECT_EQ(NormalizeQuestion("  Who married ANN?! "), "who married ann");
  EXPECT_EQ(NormalizeQuestion("who-married_ann"), "who married ann");
}

QaPair FakeAnswer(const std::string& tag) {
  QaPair a;
  // An empty KB: the cache mechanics never read it, so it binds no
  // repositories.
  a.kb = std::make_shared<const OnTheFlyKb>(nullptr, nullptr);
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

// A stored pair serves exactly its (question, epoch, fingerprint), and an
// epoch bump empties the tier.
TEST(QueryKbCacheTest, EpochExactLookup) {
  FactStore store;
  QaPair pair = FakeAnswer("ann");
  pair.question = "who married ann";
  pair.fingerprint = "fp";
  pair.epoch = 1;
  (void)store.answers().Insert(QueryKey(pair.question, 1, "fp"), pair);
  EXPECT_EQ(store.answers().stats().hits + store.answers().stats().misses, 0u);

  auto hits = [&](std::string_view question, CorpusEpoch epoch,
                  std::string_view fingerprint) {
    bool hit = false;
    (void)store.answers().FetchOrCompute(
        QueryKey(question, epoch, fingerprint),
        [] { return FakeAnswer("computed"); }, &hit);
    return hit;
  };
  EXPECT_FALSE(hits("who married ann", 2, "fp"));  // stale
  EXPECT_FALSE(hits("who married ann", 1, "other"));
  EXPECT_FALSE(hits("ann married who", 1, "fp"));  // exact only
  EXPECT_TRUE(hits("who married ann", 1, "fp"));

  store.SetEpoch(2);
  EXPECT_EQ(store.answers().entry_count(), 0u);
  EXPECT_FALSE(hits("who married ann", 1, "fp"));
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

TEST_F(StoreTest, QueryTierHitsShareTheColdKb) {
  std::string query = dataset_->wiki_eval.front().doc.title;
  // The cold bytes come from a separate service with its own tiers.
  std::string cold_bytes;
  {
    auto search = MakeSearch();
    KbService reference(engine_, search.get());
    cold_bytes = reference.Answer(query).kb.Serialize();
  }

  auto search = MakeSearch();
  KbService service(engine_, search.get());
  KbService::QueryResult cold = service.Answer(query);
  KbService::QueryResult a = service.Answer(query);
  KbService::QueryResult b = service.Answer(query);
  ASSERT_TRUE(a.stats.query_cache_hit);
  ASSERT_TRUE(b.stats.query_cache_hit);
  EXPECT_EQ(&a.kb, &b.kb);
  EXPECT_EQ(&a.kb, &cold.kb);
  EXPECT_EQ(&a.kb, a.pair->kb.get());
  EXPECT_EQ(&a.answers, &a.pair->answers);
  EXPECT_EQ(a.pair, b.pair);
  EXPECT_EQ(a.kb.Serialize(), cold_bytes);

  // The tier's one QA pair is that very object.
  std::vector<std::shared_ptr<const QaPair>> pairs =
      service.query_cache().Values();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0]->question, NormalizeQuestion(query));
  EXPECT_EQ(pairs[0]->epoch, search->epoch());
  EXPECT_EQ(pairs[0]->fingerprint, engine_->config().Fingerprint());
  EXPECT_EQ(pairs[0]->kb.get(), &a.kb);
  EXPECT_EQ(pairs[0], a.pair);
  EXPECT_TRUE(pairs[0]->kb_bytes.empty());
}

TEST_F(StoreTest, LoadedPairIsDeserializedOnceThenHitsTheQueryTier) {
  std::string path = TempPath("deserialize_once.jsonl");
  std::string query = dataset_->wiki_eval.front().doc.title;
  std::string cold_bytes;
  {
    auto search = MakeSearch();
    KbService service(engine_, search.get());
    cold_bytes = service.Answer(query).kb.Serialize();
    ASSERT_TRUE(service.fact_store()->Save(path).ok());
  }
  FactStore loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  auto search = MakeSearch();
  KbServiceOptions options;
  options.fact_store = &loaded;
  options.keep_slowest_traces = 3;
  KbService service(engine_, search.get(), options);

  KbService::QueryResult first = service.Answer(query);
  EXPECT_TRUE(first.stats.served_from_store);
  EXPECT_FALSE(first.stats.query_cache_hit);
  EXPECT_EQ(first.kb.Serialize(), cold_bytes);
  KbService::QueryResult second = service.Answer(query);
  KbService::QueryResult third = service.Answer(query);
  EXPECT_TRUE(second.stats.query_cache_hit);
  EXPECT_TRUE(third.stats.query_cache_hit);
  EXPECT_EQ(&second.kb, &first.kb);
  EXPECT_EQ(&third.kb, &first.kb);

  int deserializations = 0;
  for (const auto& trace : service.traces().Slowest()) {
    for (const obs::Span& s : trace->Snapshot()) {
      if (s.name == "deserialize") ++deserializations;
    }
  }
  EXPECT_EQ(service.traces().Slowest().size(), 3u);
  EXPECT_EQ(deserializations, 1);
  std::remove(path.c_str());
}

// The query tier is the only holder of answered QA pairs, so its byte
// budget bounds them: answering 10x the budget in distinct questions keeps
// the resident pairs at or under it.
TEST_F(StoreTest, QueryTierHoldsAnswersUnderItsByteBudget) {
  // 8 shards of 48 KiB: each holds several of this dataset's ~6 KB answers.
  constexpr size_t kBudget = size_t{8} * (48 << 10);
  FactStore store(kBudget);
  ASSERT_EQ(store.answers().byte_budget(), kBudget);
  auto search = MakeSearch();
  KbServiceOptions options;
  options.fact_store = &store;
  KbService service(engine_, search.get(), options);

  size_t answered_bytes = 0;
  size_t questions = 0;
  while (answered_bytes < 10 * kBudget) {
    const GoldDocument& gd =
        dataset_->wiki_eval[questions % dataset_->wiki_eval.size()];
    KbService::QueryResult r =
        service.Answer(gd.doc.title + " " + std::to_string(questions));
    ASSERT_FALSE(r.stats.query_cache_hit);
    answered_bytes += r.kb.ApproxBytes();
    ++questions;
  }
  EXPECT_LE(store.answers().ApproxBytesUsed(), kBudget);
  EXPECT_GT(store.answers().entry_count(), 0u);
  EXPECT_LT(store.answers().entry_count(), questions);
  EXPECT_GT(store.answers().stats().evictions, 0u);
  std::printf("%zu questions, %zu answered bytes, %zu resident in %zu pairs\n",
              questions, answered_bytes, store.answers().ApproxBytesUsed(),
              store.answers().entry_count());
}

TEST_F(StoreTest, KbApproxBytesCoversItsBytesAndGrowsWithFacts) {
  auto search = MakeSearch();
  KbService service(engine_, search.get());
  KbService::QueryResult answer =
      service.Answer(dataset_->wiki_eval.front().doc.title);
  ASSERT_GT(answer.kb.size(), 1u);
  EXPECT_GE(answer.kb.ApproxBytes(), answer.kb.Serialize().size());

  OnTheFlyKb grown = engine_->MakeKb();
  size_t previous = grown.ApproxBytes();
  for (const Fact& f : answer.kb.facts()) {
    grown.AddFact(f);
    const size_t bytes = grown.ApproxBytes();
    EXPECT_GT(bytes, previous);
    EXPECT_GE(bytes, grown.Serialize().size());
    previous = bytes;
  }
  grown.ShrinkToFit();
  EXPECT_GE(grown.ApproxBytes(), grown.Serialize().size());
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

  // "Restart": a fresh service over a store loaded from the snapshot — the
  // answer must come from the persisted QA pair without touching retrieval
  // or the doc tier, byte-identical to the original cold build.
  {
    FactStore loaded;
    ASSERT_TRUE(loaded.Load(path).ok());
    auto search = MakeSearch();
    KbServiceOptions options;
    options.fact_store = &loaded;
    KbService service(engine_, search.get(), options);
    KbService::QueryResult replayed = service.Answer(query);
    EXPECT_TRUE(replayed.stats.served_from_store);
    EXPECT_EQ(replayed.stats.cache.hits + replayed.stats.cache.misses, 0u);
    EXPECT_EQ(replayed.kb.Serialize(), cold_bytes);
    EXPECT_EQ(replayed.answers, cold_answers);
  }
  std::remove(path.c_str());
}

TEST_F(StoreTest, CorruptStoredKbIsAnsweredCold) {
  std::string path = TempPath("corrupt.jsonl");
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
  // Break the stored KB's header inside its JSON string: the snapshot still
  // loads, but the QA pair's KB bytes no longer deserialize.
  std::string snapshot;
  {
    std::ifstream in(path, std::ios::binary);
    snapshot.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  size_t at = snapshot.find("qkbfly-kb");
  ASSERT_NE(at, std::string::npos);
  snapshot.replace(at, 9, "corrupt-kb");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << snapshot;
  FactStore loaded;
  ASSERT_TRUE(loaded.Load(path).ok());

  obs::Counter* rejected =
      obs::MetricsRegistry::Default().GetCounter("store_qa_rejected_total");
  const uint64_t rejected_before = rejected->Value();
  auto search = MakeSearch();
  KbServiceOptions options;
  options.fact_store = &loaded;
  KbService service(engine_, search.get(), options);
  KbService::QueryResult answer = service.Answer(query);
  EXPECT_FALSE(answer.stats.served_from_store);
  EXPECT_EQ(answer.kb.Serialize(), cold_bytes);
  EXPECT_EQ(answer.answers, cold_answers);
  EXPECT_EQ(rejected->Value() - rejected_before, 1u);

  // Only the rebuilt bytes reached the query tier.
  KbService::QueryResult again = service.Answer(query);
  EXPECT_TRUE(again.stats.query_cache_hit);
  EXPECT_EQ(again.kb.Serialize(), cold_bytes);
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
