// util/json: the strict DOM parser and the shared string escaper, plus a
// seeded mutation test (truncations, byte flips, insertions and deletions
// drawn from util/rng over valid seed documents) that drives every reader
// of outside JSON bytes: json::Document, FactStore::Load and
// MetricsRegistry::ValidateJson. Labeled asan.
#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "mutate.h"
#include "obs/metrics.h"
#include "store/fact_store.h"
#include "util/rng.h"

namespace qkbfly {
namespace {

using json::Document;
using json::Value;

TEST(JsonTest, ParsesEveryKindAndKeepsKeyOrder) {
  Document doc;
  std::string error;
  ASSERT_TRUE(doc.Parse(
      " {\"z\": null, \"a\": [true, false, -1.5e3, \"s\\u00e9\"],\r\n"
      "  \"m\": {\"k\": {}}, \"e\": []}\t",
      &error))
      << error;
  Value root = doc.root();
  ASSERT_TRUE(root.is_object());
  ASSERT_EQ(root.size(), 4u);
  EXPECT_EQ(root.key(0), "z");
  EXPECT_EQ(root.key(1), "a");
  EXPECT_EQ(root.key(2), "m");
  EXPECT_EQ(root.key(3), "e");
  EXPECT_TRUE(root.at(0).is_null());

  Value a = root.Find("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.size(), 4u);
  EXPECT_TRUE(a.at(0).is_bool() && a.at(0).boolean());
  EXPECT_TRUE(a.at(1).is_bool() && !a.at(1).boolean());
  EXPECT_EQ(a.at(2).text(), "-1.5e3");
  double d = 0.0;
  EXPECT_TRUE(a.at(2).GetDouble(&d));
  EXPECT_EQ(d, -1500.0);
  EXPECT_EQ(a.at(3).text(), "s\xe9");
  EXPECT_TRUE(root.Find("m").Find("k").is_object());
  EXPECT_EQ(root.Find("m").Find("k").size(), 0u);
  EXPECT_TRUE(root.Find("e").is_array());

  // Absent handles answer every question with "no".
  Value missing = root.Find("nope");
  EXPECT_FALSE(missing);
  EXPECT_FALSE(missing.is_null());
  EXPECT_EQ(missing.size(), 0u);
  EXPECT_FALSE(missing.Find("x"));
  EXPECT_FALSE(a.at(4));
  EXPECT_FALSE(a.Find("a"));
  EXPECT_EQ(a.key(0), "");
  uint64_t u = 7;
  EXPECT_FALSE(missing.GetUint64(&u));
  EXPECT_EQ(u, 7u);
}

TEST(JsonTest, RejectsMalformedInputAtItsOffset) {
  struct Case {
    std::string text;
    size_t offset;
  };
  const Case kCases[] = {
      {"", 0},
      {"   ", 3},
      {"{\"a\":1,\"a\":2}", 7},  // duplicate key
      {"{\"a\":1,}", 7},         // trailing comma
      {"[1,]", 3},
      {"[1 2]", 3},
      {"{\"a\" 1}", 5},
      {"{1:2}", 1},
      {"01", 1},  // leading zero: "0" then trailing characters
      {"+1", 0},
      {"1.", 2},
      {".5", 0},
      {"1e", 2},
      {"-", 1},
      {"tru", 0},
      {"nul", 0},
      {"\"a\nb\"", 2},       // raw control byte
      {"\"\\u0100\"", 7},    // above the one-byte range
      {"\"\\u00g0\"", 3},
      {"\"\\u-0ff\"", 3},
      {"\"\\x\"", 2},
      {"\"abc", 4},
      {"[\"a\"] x", 6},
      {"{} {}", 3},
  };
  for (const Case& c : kCases) {
    Document doc;
    std::string error;
    EXPECT_FALSE(doc.Parse(c.text, &error)) << c.text;
    EXPECT_FALSE(doc.root()) << c.text;
    EXPECT_NE(error.find(" at offset " + std::to_string(c.offset)),
              std::string::npos)
        << c.text << " -> " << error;
  }
}

TEST(JsonTest, NestingIsBoundedByMaxDepth) {
  Document doc;
  std::string error;
  std::string ok(json::kMaxDepth, '[');
  ok.append(json::kMaxDepth, ']');
  EXPECT_TRUE(doc.Parse(ok, &error)) << error;
  std::string deep(json::kMaxDepth + 1, '[');
  deep.append(json::kMaxDepth + 1, ']');
  EXPECT_FALSE(doc.Parse(deep, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(JsonTest, NumbersReadExactlyFromTheirToken) {
  Document doc;
  std::string error;
  ASSERT_TRUE(doc.Parse("[0, 18446744073709551615, 18446744073709551616, -1,"
                        " 1.0, 1e3, 0.10000000000000001, 1e400, -0,"
                        " 4.9406564584124654e-324]",
                        &error))
      << error;
  Value v = doc.root();
  uint64_t u = 0;
  EXPECT_TRUE(v.at(0).GetUint64(&u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(v.at(1).GetUint64(&u));
  EXPECT_EQ(u, UINT64_MAX);
  for (size_t i : {2, 3, 4, 5, 6}) EXPECT_FALSE(v.at(i).GetUint64(&u)) << i;

  // GetDouble is strtod of the source token, bit for bit.
  for (size_t i : {1, 4, 6, 8, 9}) {
    double d = 1.0;
    ASSERT_TRUE(v.at(i).GetDouble(&d)) << i;
    double want = std::strtod(std::string(v.at(i).text()).c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&d, &want, sizeof(d)), 0) << v.at(i).text();
  }
  double d = 0.0;
  EXPECT_FALSE(v.at(7).GetDouble(&d));  // overflows to inf
  EXPECT_FALSE(Value().GetDouble(&d));
}

TEST(JsonTest, EscaperRoundTripsEveryByte) {
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes.push_back(static_cast<char>(b));
  std::string quoted;
  json::AppendJsonString(all_bytes, &quoted);
  EXPECT_EQ(quoted.find('\n'), std::string::npos);
  Document doc;
  std::string error;
  ASSERT_TRUE(doc.Parse(quoted, &error)) << error;
  EXPECT_EQ(doc.root().text(), all_bytes);

  // Every one-byte \u escape decodes to that byte, in either hex case.
  for (int b = 0; b < 256; ++b) {
    char lower[16];
    char upper[16];
    std::snprintf(lower, sizeof(lower), "\"\\u%04x\"", b);
    std::snprintf(upper, sizeof(upper), "\"\\u%04X\"", b);
    for (const char* text : {lower, upper}) {
      ASSERT_TRUE(doc.Parse(text, &error)) << text << ": " << error;
      EXPECT_EQ(doc.root().text(), std::string(1, static_cast<char>(b)));
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded mutation test.
// ---------------------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Visits every value and calls every accessor, so ASan sees each read.
size_t Walk(Value v) {
  size_t visited = 1;
  uint64_t u = 0;
  double d = 0.0;
  (void)v.GetUint64(&u);
  (void)v.GetDouble(&d);
  visited += v.text().size() + (v.boolean() ? 1 : 0);
  for (size_t i = 0; i < v.size(); ++i) {
    visited += v.key(i).size();
    if (v.is_object()) {
      EXPECT_TRUE(v.Find(v.key(i)));
    }
    visited += Walk(v.at(i));
  }
  return visited;
}

/// The bytes JSON readers treat specially, for Mutate.
constexpr std::string_view kJsonSignificant =
    "{}[]\",:\\-+.0123456789eEutn \n\x01";

std::string SnapshotSeed(const std::string& path) {
  FactStore store;
  store.SetEpoch(3);
  FactRecord fact;
  fact.subject = "Ann \"The\" Smith";
  fact.relation = "born in";
  fact.args = {"Spring\tfield", "1999"};
  fact.confidence = 0.10000000000000001;
  fact.epoch = 3;
  fact.doc_ids = {"wiki:1", "wiki:2"};
  fact.queries = {"ann smith"};
  (void)store.Ingest(fact);
  fact.negated = true;
  fact.relation = "back-edge with \"quotes\" and\nnewline";
  fact.args = {};
  fact.epoch = 18446744073709551615ull;
  (void)store.Ingest(fact);
  QaPair pair;
  pair.question = "where was ann born";
  pair.fingerprint = "fp";
  pair.epoch = 3;
  pair.documents = 2;
  pair.answers = {"Springfield"};
  pair.kb_bytes = std::string("qkbfly-kb\t1\n\x01\x7f\xff", 15);
  (void)store.answers().Insert(
      QueryKey(pair.question, pair.epoch, pair.fingerprint), pair);
  EXPECT_TRUE(store.Save(path).ok());
  return ReadFile(path);
}

std::string MetricsSeed() {
  obs::MetricsRegistry registry;
  registry.GetCounter("seed_docs_total")->Increment(3);
  registry.GetGauge("seed_entries")->Set(-2);
  registry.GetHistogram("seed_seconds")->Observe(0.010);
  return obs::MetricsRegistry::ToJson(registry.Snapshot());
}

TEST(JsonMutationTest, NoMutantCrashesAndAcceptedSnapshotsAreStable) {
  const std::string dir = ::testing::TempDir();
  const std::string mutant_path = dir + "qkbfly_json_mutant.jsonl";
  const std::string saved_path = dir + "qkbfly_json_saved.jsonl";
  const std::string resaved_path = dir + "qkbfly_json_resaved.jsonl";
  const std::string snapshot = SnapshotSeed(saved_path);
  const std::string metrics = MetricsSeed();

  std::string error;
  ASSERT_TRUE(obs::MetricsRegistry::ValidateJson(metrics, &error)) << error;
  FactStore check;
  WriteFile(mutant_path, snapshot);
  ASSERT_TRUE(check.Load(mutant_path).ok());

  Rng rng(20240611);
  Document doc;
  size_t parsed = 0;
  size_t loaded = 0;
  constexpr int kRounds = 2000;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string* seed : {&snapshot, &metrics}) {
      std::string mutant = Mutate(*seed, kJsonSignificant, rng);
      if (doc.Parse(mutant, &error)) {
        ++parsed;
        EXPECT_GT(Walk(doc.root()), 0u);
      }
      (void)obs::MetricsRegistry::ValidateJson(mutant, &error);
      // The whole snapshot parses line by line only when it is the snapshot
      // seed; the others still exercise Load's rejection paths.
      WriteFile(mutant_path, mutant);
      FactStore store;
      if (!store.Load(mutant_path).ok()) continue;
      ++loaded;
      // Whatever Load accepts must save, reload and re-save identically.
      ASSERT_TRUE(store.Save(saved_path).ok());
      FactStore reloaded;
      Status status = reloaded.Load(saved_path);
      ASSERT_TRUE(status.ok()) << status << "\nmutant:\n" << mutant;
      ASSERT_TRUE(reloaded.Save(resaved_path).ok());
      ASSERT_EQ(ReadFile(saved_path), ReadFile(resaved_path))
          << "mutant:\n" << mutant;
    }
  }
  // The mutations are small enough that some mutants stay valid.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(loaded, 0u);
  std::remove(mutant_path.c_str());
  std::remove(saved_path.c_str());
  std::remove(resaved_path.c_str());
}

}  // namespace
}  // namespace qkbfly
