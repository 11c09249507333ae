// Trace contract: span tree shape, typed attributes, RAII ScopedSpan
// behavior (including the disabled-context fast path), JSON rendering, and
// the slowest-N TraceSink.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

namespace qkbfly::obs {
namespace {

TEST(TraceTest, ConstructionOpensRootSpan) {
  Trace trace("answer");
  std::vector<Span> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "answer");
  EXPECT_EQ(spans[0].id, trace.root());
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_LT(spans[0].end_s, 0.0);  // still open
  EXPECT_FALSE(trace.finished());
}

TEST(TraceTest, SpanTreeRecordsParents) {
  Trace trace("answer");
  SpanId retrieve = trace.StartSpan("retrieve", trace.root());
  SpanId fetch = trace.StartSpan("fetch_or_compute", retrieve);
  trace.EndSpan(fetch);
  trace.EndSpan(retrieve);
  trace.Finish();

  std::vector<Span> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[retrieve].parent, trace.root());
  EXPECT_EQ(spans[fetch].parent, retrieve);
  for (const Span& s : spans) {
    EXPECT_GE(s.end_s, s.start_s);
    EXPECT_GE(s.DurationSeconds(), 0.0);
  }
  // Children are contained within their parents' windows.
  EXPECT_GE(spans[fetch].start_s, spans[retrieve].start_s);
  EXPECT_LE(spans[fetch].end_s, spans[retrieve].end_s);
}

TEST(TraceTest, NoSpanParentAttachesToRoot) {
  Trace trace("answer");
  SpanId child = trace.StartSpan("annotate", kNoSpan);
  EXPECT_EQ(trace.Snapshot()[child].parent, trace.root());
}

TEST(TraceTest, TypedAttributes) {
  Trace trace("answer");
  trace.AddAttribute(trace.root(), "doc_id", static_cast<int64_t>(42));
  trace.AddAttribute(trace.root(), "score", 0.5);
  trace.AddAttribute(trace.root(), "cache_hit", true);
  trace.AddAttribute(trace.root(), "query", std::string_view("ennio"));
  trace.Finish();

  const std::vector<SpanAttribute> attrs = trace.Snapshot()[0].attributes;
  ASSERT_EQ(attrs.size(), 4u);
  EXPECT_EQ(attrs[0].kind, SpanAttribute::Kind::kInt);
  EXPECT_EQ(attrs[0].int_value, 42);
  EXPECT_EQ(attrs[1].kind, SpanAttribute::Kind::kDouble);
  EXPECT_DOUBLE_EQ(attrs[1].double_value, 0.5);
  EXPECT_EQ(attrs[2].kind, SpanAttribute::Kind::kBool);
  EXPECT_TRUE(attrs[2].bool_value);
  EXPECT_EQ(attrs[3].kind, SpanAttribute::Kind::kString);
  EXPECT_EQ(attrs[3].string_value, "ennio");
}

TEST(TraceTest, FinishClosesOpenSpansAndIsIdempotent) {
  Trace trace("answer");
  SpanId left_open = trace.StartSpan("retrieve", trace.root());
  trace.Finish();
  EXPECT_TRUE(trace.finished());
  std::vector<Span> spans = trace.Snapshot();
  EXPECT_GE(spans[left_open].end_s, 0.0);
  EXPECT_GE(spans[trace.root()].end_s, 0.0);
  double duration = trace.DurationSeconds();
  trace.Finish();  // idempotent
  EXPECT_DOUBLE_EQ(trace.DurationSeconds(), duration);
}

TEST(ScopedSpanTest, DisabledContextIsANoOp) {
  TraceContext disabled;
  EXPECT_FALSE(disabled.enabled());
  ScopedSpan span(disabled, "annotate");
  span.AddAttribute("doc_id", static_cast<int64_t>(1));
  span.End();  // must not crash; nothing to record
  EXPECT_FALSE(span.context().enabled());
}

TEST(ScopedSpanTest, RaiiOpensAndClosesChild) {
  Trace trace("answer");
  {
    ScopedSpan span({&trace, trace.root()}, "graph_build");
    span.AddAttribute("edges", static_cast<int64_t>(12));
    ScopedSpan nested(span.context(), "densify");
  }
  trace.Finish();
  std::vector<Span> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].name, "graph_build");
  EXPECT_EQ(spans[1].parent, trace.root());
  ASSERT_EQ(spans[1].attributes.size(), 1u);
  EXPECT_EQ(spans[1].attributes[0].int_value, 12);
  EXPECT_EQ(spans[2].name, "densify");
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_GE(spans[1].end_s, 0.0);
  EXPECT_GE(spans[2].end_s, 0.0);
}

TEST(ScopedSpanTest, MoveTransfersOwnership) {
  Trace trace("answer");
  std::vector<Span> spans;
  {
    ScopedSpan a({&trace, trace.root()}, "retrieve");
    ScopedSpan b = std::move(a);
    // `a` must not double-end the span when it goes out of scope.
  }
  trace.Finish();
  spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_GE(spans[1].end_s, 0.0);
}

TEST(TraceTest, ToJsonNestsChildrenAndEscapes) {
  Trace trace("answer");
  trace.AddAttribute(trace.root(), "query", std::string_view("say \"hi\"\n"));
  SpanId retrieve = trace.StartSpan("retrieve", trace.root());
  trace.AddAttribute(retrieve, "documents", static_cast<int64_t>(3));
  SpanId fetch = trace.StartSpan("fetch_or_compute", retrieve);
  trace.AddAttribute(fetch, "cache_hit", false);
  trace.EndSpan(fetch);
  trace.EndSpan(retrieve);
  trace.Finish();

  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\": \"answer\""), std::string::npos);
  EXPECT_NE(json.find("\"children\": [{"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"retrieve\""), std::string::npos);
  EXPECT_NE(json.find("\"documents\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\": false"), std::string::npos);
  // The quote and newline in the attribute are escaped, not emitted raw.
  EXPECT_NE(json.find("say \\\"hi\\\"\\n"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(TraceSinkTest, KeepsSlowestNByRootDuration) {
  TraceSink sink(2);
  auto make = [](const char* name, int sleep_ms) {
    auto t = std::make_shared<Trace>(name);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    t->Finish();
    return t;
  };
  auto fast = make("fast", 0);
  auto slow = make("slow", 30);
  auto medium = make("medium", 10);
  sink.Offer(fast);
  sink.Offer(slow);
  sink.Offer(medium);

  std::vector<std::shared_ptr<const Trace>> kept = sink.Slowest();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0]->name(), "slow");
  EXPECT_EQ(kept[1]->name(), "medium");
  EXPECT_GE(kept[0]->DurationSeconds(), kept[1]->DurationSeconds());

  std::string json = sink.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  EXPECT_NE(json.find("\"name\": \"slow\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\": \"fast\""), std::string::npos);
}

TEST(TraceSinkTest, ZeroCapacityKeepsNothing) {
  TraceSink sink(0);
  auto t = std::make_shared<Trace>("answer");
  t->Finish();
  sink.Offer(t);
  EXPECT_TRUE(sink.Slowest().empty());
  EXPECT_EQ(sink.ToJson(), "[]\n");
}

}  // namespace
}  // namespace qkbfly::obs
