#include "util/bench_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace qkbfly {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(BenchReportTest, WritesPlainEntries) {
  BenchReport report;
  report.Add("workload/a", 10, 2, 1.5, 42);
  std::string path = TempPath("bench_plain.json");
  ASSERT_TRUE(report.WriteJson(path));
  std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"name\": \"workload/a\""), std::string::npos);
  EXPECT_NE(json.find("\"docs\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"facts\": 42"), std::string::npos);
  // No optional columns unless attached.
  EXPECT_EQ(json.find("\"items\""), std::string::npos);
  EXPECT_EQ(json.find("\"precision\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchReportTest, EscapesNames) {
  BenchReport report;
  report.Add("quo\"te", 1, 1, 0.0, 0);
  std::string path = TempPath("bench_escape.json");
  ASSERT_TRUE(report.WriteJson(path));
  std::string json = ReadFile(path);
  EXPECT_NE(json.find("quo\\\"te"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchReportTest, ReadsBackEveryColumnGroup) {
  BenchReport report;
  report.Add("plain \"quoted\"\nname\x01", 10, 2, 1.5, 42);
  BenchReport::StageFields stage;
  stage.items = 7;
  stage.rate = 28.0;
  stage.p50_ms = 0.125;
  stage.p95_ms = 0.5;
  report.Add("stage", 4, 1, 0.25, 7, stage);
  BenchReport::QualityFields quality;
  quality.precision = 0.75;
  quality.recall = 0.5;
  quality.f1 = 0.6;
  quality.mst_share = 0.25;
  report.Add("quality", 3, 4, 2.0, 9, quality);
  std::string path = TempPath("bench_readback.json");
  ASSERT_TRUE(report.WriteJson(path));
  EXPECT_NE(ReadFile(path).find("\"plain \\\"quoted\\\"\\nname\\u0001\""),
            std::string::npos);

  std::vector<BenchReport::Entry> read;
  std::string error;
  ASSERT_TRUE(BenchReport::ReadJsonFile(path, &read, &error)) << error;
  const std::vector<BenchReport::Entry>& wrote = report.entries();
  ASSERT_EQ(read.size(), wrote.size());
  for (size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(read[i].name, wrote[i].name);
    EXPECT_EQ(read[i].docs, wrote[i].docs);
    EXPECT_EQ(read[i].threads, wrote[i].threads);
    EXPECT_DOUBLE_EQ(read[i].wall_s, wrote[i].wall_s);
    EXPECT_EQ(read[i].facts, wrote[i].facts);
    EXPECT_EQ(read[i].has_stage, wrote[i].has_stage);
    EXPECT_EQ(read[i].has_quality, wrote[i].has_quality);
  }
  // The values above are exact at the written precision.
  EXPECT_EQ(read[1].stage.items, 7u);
  EXPECT_DOUBLE_EQ(read[1].stage.rate, 28.0);
  EXPECT_DOUBLE_EQ(read[1].stage.p50_ms, 0.125);
  EXPECT_DOUBLE_EQ(read[1].stage.p95_ms, 0.5);
  EXPECT_DOUBLE_EQ(read[2].quality.precision, 0.75);
  EXPECT_DOUBLE_EQ(read[2].quality.recall, 0.5);
  EXPECT_DOUBLE_EQ(read[2].quality.f1, 0.6);
  EXPECT_DOUBLE_EQ(read[2].quality.mst_share, 0.25);
  std::remove(path.c_str());
}

TEST(BenchReportTest, ReadJsonFileRejectsSchemaViolations) {
  std::string path = TempPath("bench_invalid.json");
  auto validate = [&](const std::string& contents, std::string* error) {
    std::ofstream(path, std::ios::trunc) << contents;
    std::vector<BenchReport::Entry> entries;
    return BenchReport::ReadJsonFile(path, &entries, error);
  };
  const std::string kRequired =
      "\"docs\": 1, \"threads\": 1, \"wall_s\": 0.5, \"facts\": 2";
  std::string error;
  EXPECT_TRUE(validate("[\n  {\"name\": \"a\", " + kRequired + "}\n]\n", &error))
      << error;
  EXPECT_TRUE(validate("[]\n", &error)) << error;

  const std::string kBad[] = {
      // Unknown key.
      "[{\"name\": \"a\", " + kRequired + ", \"bogus\": 1}]",
      // Missing required key (facts).
      "[{\"name\": \"a\", \"docs\": 1, \"threads\": 1, \"wall_s\": 0.5}]",
      // Nested object value.
      "[{\"name\": \"a\", \"docs\": {\"n\": 1}, \"threads\": 1, "
      "\"wall_s\": 0.5, \"facts\": 2}]",
      // Non-numeric docs.
      "[{\"name\": \"a\", \"docs\": \"1\", \"threads\": 1, \"wall_s\": 0.5, "
      "\"facts\": 2}]",
      // Empty name.
      "[{\"name\": \"\", " + kRequired + "}]",
      // Trailing content after the array.
      "[{\"name\": \"a\", " + kRequired + "}] x",
  };
  for (const std::string& bad : kBad) {
    error.clear();
    EXPECT_FALSE(validate(bad, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qkbfly
