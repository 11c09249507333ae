// Trace propagation across the thread-pool fan-out: a multi-threaded
// BuildKb with one Trace attached must yield a single consistent span tree —
// every document's process_document span parented under the build_kb span,
// every stage span under its document span, the densify span's three
// children (lanes, loop, confidences) under it — because the TraceContext is
// captured by value into each pool task, never via thread-local state.
// Labeled `tsan` so `ctest -L tsan` runs the concurrent appends under the
// race detector. Also asserts the determinism contract: the KB bytes are
// identical with and without a live trace, and the serving layer's miss
// path: canonical extraction gets its own `extract` span beside
// `process_document`, apart from the per-query `merge`.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/qkbfly.h"
#include "obs/trace.h"
#include "service/kb_service.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

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

class TracePropagationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.wiki_eval_articles = 8;
    config.news_docs = 4;
    dataset_ = BuildDataset(config).release();
    for (const GoldDocument& gd : dataset_->wiki_eval) {
      docs_.push_back(gd.doc);
    }
    for (const GoldDocument& gd : dataset_->news) docs_.push_back(gd.doc);
  }

  static OnTheFlyKb Build(int num_threads, obs::TraceContext trace) {
    EngineConfig config;
    config.num_threads = num_threads;
    QkbflyEngine engine(dataset_->repository.get(), &dataset_->patterns,
                        &dataset_->stats, config);
    return engine.BuildKb(docs_, nullptr, trace);
  }

  static SynthDataset* dataset_;
  static std::vector<Document> docs_;
};

SynthDataset* TracePropagationTest::dataset_ = nullptr;
std::vector<Document> TracePropagationTest::docs_;

TEST_F(TracePropagationTest, ParallelBuildYieldsOneConsistentSpanTree) {
  obs::Trace trace("build");
  (void)Build(4, {&trace, trace.root()});
  trace.Finish();

  std::vector<obs::Span> spans = trace.Snapshot();
  // Locate the single build_kb span under the root.
  obs::SpanId build_kb = obs::kNoSpan;
  for (const obs::Span& s : spans) {
    if (s.name == "build_kb") {
      EXPECT_EQ(build_kb, obs::kNoSpan) << "more than one build_kb span";
      EXPECT_EQ(s.parent, trace.root());
      build_kb = s.id;
    }
  }
  ASSERT_NE(build_kb, obs::kNoSpan);

  // Every document's process_document span hangs off build_kb — pool workers
  // must not misparent them — and every stage span off its document span.
  std::map<std::string, int> stage_counts;
  int documents = 0;
  for (const obs::Span& s : spans) {
    if (s.name == "process_document") {
      EXPECT_EQ(s.parent, build_kb);
      ++documents;
    }
    if (s.name == "annotate" || s.name == "graph_build" ||
        s.name == "densify") {
      ASSERT_GE(s.parent, 0);
      ASSERT_LT(static_cast<size_t>(s.parent), spans.size());
      EXPECT_EQ(spans[s.parent].name, "process_document");
      ++stage_counts[s.name];
    }
    if (s.name == "canonicalize") {
      EXPECT_EQ(s.parent, build_kb);
      ++stage_counts[s.name];
    }
    // The greedy densifier splits its span into lanes, loop and confidences.
    if (s.name == "densify_lanes" || s.name == "densify_loop" ||
        s.name == "densify_confidences") {
      ASSERT_GE(s.parent, 0);
      ASSERT_LT(static_cast<size_t>(s.parent), spans.size());
      EXPECT_EQ(spans[s.parent].name, "densify");
      ++stage_counts[s.name];
    }
    // All spans closed, timed within the trace.
    EXPECT_GE(s.end_s, s.start_s);
  }
  int expected = static_cast<int>(docs_.size());
  EXPECT_EQ(documents, expected);
  EXPECT_EQ(stage_counts["annotate"], expected);
  EXPECT_EQ(stage_counts["graph_build"], expected);
  EXPECT_EQ(stage_counts["densify"], expected);
  EXPECT_EQ(stage_counts["densify_lanes"], expected);
  EXPECT_EQ(stage_counts["densify_loop"], expected);
  EXPECT_EQ(stage_counts["densify_confidences"], expected);
  EXPECT_EQ(stage_counts["canonicalize"], expected);
}

TEST_F(TracePropagationTest, KbBytesIdenticalWithAndWithoutTracing) {
  std::string untraced = Serialize(Build(4, {}));
  obs::Trace trace("build");
  std::string traced = Serialize(Build(4, {&trace, trace.root()}));
  trace.Finish();
  EXPECT_EQ(traced, untraced);
  EXPECT_GT(trace.Snapshot().size(), 1u);
}

TEST_F(TracePropagationTest, SerialAndParallelSpanTreesMatchInShape) {
  auto shape = [](const obs::Trace& t) {
    // Multiset of (name, parent-name) pairs — start order differs across
    // thread counts, the tree shape must not.
    std::map<std::string, int> counts;
    std::vector<obs::Span> spans = t.Snapshot();
    for (const obs::Span& s : spans) {
      std::string parent =
          s.parent == obs::kNoSpan ? "" : spans[s.parent].name;
      ++counts[parent + "/" + s.name];
    }
    return counts;
  };
  obs::Trace serial("build");
  (void)Build(1, {&serial, serial.root()});
  serial.Finish();
  obs::Trace parallel("build");
  (void)Build(4, {&parallel, parallel.root()});
  parallel.Finish();
  EXPECT_EQ(shape(serial), shape(parallel));
}

TEST_F(TracePropagationTest, ServiceMissSpansSplitProcessAndExtract) {
  QkbflyEngine engine(dataset_->repository.get(), &dataset_->patterns,
                      &dataset_->stats, EngineConfig());
  KbServiceOptions options;
  options.num_threads = 4;
  KbService service(&engine, nullptr, options);
  std::vector<const Document*> docs;
  for (const Document& d : docs_) docs.push_back(&d);

  // Children of each fetch_or_compute span, by name, plus the merge count.
  auto children = [](const obs::Trace& t, int* merges) {
    std::map<std::string, int> counts;
    std::vector<obs::Span> spans = t.Snapshot();
    *merges = 0;
    for (const obs::Span& s : spans) {
      if (s.name == "merge") {
        EXPECT_EQ(s.parent, t.root());
        ++*merges;
      }
      if (s.parent == obs::kNoSpan) continue;
      if (spans[s.parent].name == "fetch_or_compute") ++counts[s.name];
      if (s.name == "fetch_or_compute") {
        EXPECT_EQ(s.parent, t.root());
      }
    }
    return counts;
  };

  obs::Trace cold("build");
  (void)service.BuildKb(docs, nullptr, {&cold, cold.root()});
  cold.Finish();
  int merges = 0;
  std::map<std::string, int> expected = {
      {"process_document", static_cast<int>(docs.size())},
      {"extract", static_cast<int>(docs.size())}};
  EXPECT_EQ(children(cold, &merges), expected);
  EXPECT_EQ(merges, 1);

  // A warm build extracts nothing: fetch_or_compute spans are leaves.
  obs::Trace warm("build");
  (void)service.BuildKb(docs, nullptr, {&warm, warm.root()});
  warm.Finish();
  EXPECT_TRUE(children(warm, &merges).empty());
  EXPECT_EQ(merges, 1);
}

}  // namespace
}  // namespace qkbfly
