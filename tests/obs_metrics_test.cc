// MetricsRegistry contract: get-or-create identity, name validation,
// snapshot ordering, both exporters (Prometheus text and JSON with its
// schema validator), and exact totals from the per-thread stripes of
// counters and histograms under concurrent recording (runs under
// ThreadSanitizer, -L tsan).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

namespace qkbfly::obs {
namespace {

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("test_events_total", "events");
  Counter* c2 = registry.GetCounter("test_events_total");
  EXPECT_EQ(c1, c2);
  c1->Increment();
  c1->Increment(4);
  EXPECT_EQ(c2->Value(), 5u);

  Gauge* g = registry.GetGauge("test_depth");
  g->Set(7);
  g->Add(-3);
  EXPECT_EQ(registry.GetGauge("test_depth")->Value(), 4);

  Histogram* h = registry.GetHistogram("test_latency_seconds");
  h->Observe(0.010);
  EXPECT_EQ(registry.GetHistogram("test_latency_seconds")->Count(), 1u);
}

TEST(MetricsRegistryTest, DistinctNamesDistinctInstruments) {
  MetricsRegistry registry;
  EXPECT_NE(registry.GetCounter("test_a_total"),
            registry.GetCounter("test_b_total"));
}

TEST(MetricsRegistryTest, NameValidation) {
  EXPECT_TRUE(MetricsRegistry::IsValidName("pipeline_documents_total"));
  EXPECT_TRUE(MetricsRegistry::IsValidName("x"));
  EXPECT_TRUE(MetricsRegistry::IsValidName("a1_b2"));
  EXPECT_FALSE(MetricsRegistry::IsValidName(""));
  EXPECT_FALSE(MetricsRegistry::IsValidName("1abc"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("_leading"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("CamelCase"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("has-dash"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("has space"));
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("test_zebra_total")->Increment(2);
  registry.GetCounter("test_alpha_total")->Increment(1);
  registry.GetGauge("test_bytes")->Set(128);
  registry.GetHistogram("test_seconds")->Observe(0.001);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "test_alpha_total");
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_EQ(snap.counters[1].name, "test_zebra_total");
  EXPECT_EQ(snap.counters[1].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 128);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].histogram.count(), 1u);
}

TEST(MetricsRegistryTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("test_docs_total", "documents processed")->Increment(3);
  registry.GetGauge("test_resident_bytes")->Set(4096);
  registry.GetHistogram("test_answer_seconds")->Observe(0.020);

  std::string text = MetricsRegistry::ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# HELP test_docs_total documents processed"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_docs_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_docs_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_resident_bytes gauge"), std::string::npos);
  EXPECT_NE(text.find("test_resident_bytes 4096"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_answer_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("test_answer_seconds_bucket{le="), std::string::npos);
  EXPECT_NE(text.find("test_answer_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_answer_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("test_answer_seconds_sum"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusTextIsDeterministic) {
  auto build = [] {
    MetricsRegistry registry;
    registry.GetCounter("test_b_total")->Increment(2);
    registry.GetCounter("test_a_total")->Increment(1);
    registry.GetHistogram("test_seconds")->Observe(0.005);
    return MetricsRegistry::ToPrometheusText(registry.Snapshot());
  };
  EXPECT_EQ(build(), build());
}

TEST(MetricsRegistryTest, JsonExportValidatesAgainstSchema) {
  MetricsRegistry registry;
  registry.GetCounter("test_docs_total")->Increment(3);
  registry.GetGauge("test_entries")->Set(-2);  // gauges may go negative
  registry.GetHistogram("test_seconds")->Observe(0.010);
  registry.GetHistogram("test_empty_seconds");  // zero samples

  std::string json = MetricsRegistry::ToJson(registry.Snapshot());
  std::string error;
  EXPECT_TRUE(MetricsRegistry::ValidateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"test_docs_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test_entries\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(MetricsRegistryTest, EmptyRegistryJsonIsValid) {
  MetricsRegistry registry;
  std::string json = MetricsRegistry::ToJson(registry.Snapshot());
  std::string error;
  EXPECT_TRUE(MetricsRegistry::ValidateJson(json, &error)) << error;
}

TEST(MetricsRegistryTest, ValidateJsonRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(MetricsRegistry::ValidateJson("", &error));
  EXPECT_FALSE(MetricsRegistry::ValidateJson("not json", &error));
  EXPECT_FALSE(MetricsRegistry::ValidateJson("{\"counters\":{}}", &error));
  // Non-snake_case metric name.
  EXPECT_FALSE(MetricsRegistry::ValidateJson(
      "{\"counters\":{\"BadName\":1},\"gauges\":{},\"histograms\":{}}",
      &error));
  // Histogram object missing a required key.
  EXPECT_FALSE(MetricsRegistry::ValidateJson(
      "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h_seconds\":"
      "{\"count\":1}}}",
      &error));
  EXPECT_FALSE(error.empty());
}

/// The i-th sample of the striped-histogram tests: a multiple of 2^-20 s
/// (about 1 us) between 1 and 512 of them, spread over many buckets. Sums
/// of such values are exact, so they do not depend on the merge order.
double Sample(int i) { return std::ldexp(1 + (i * 37) % 512, -20); }

TEST(MetricsStripesTest, SingleThreadRecordingIsExact) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test_events_total");
  Histogram* histogram = registry.GetHistogram("test_latency_seconds");
  LatencyHistogram expected;
  for (int i = 0; i < 1000; ++i) {
    counter->Increment();
    histogram->Observe(Sample(i));
    expected.Record(Sample(i));
  }
  EXPECT_EQ(counter->Value(), 1000u);
  EXPECT_EQ(histogram->Count(), 1000u);
  const LatencyHistogram got = histogram->Snapshot();
  EXPECT_EQ(got.min_seconds(), expected.min_seconds());
  EXPECT_EQ(got.max_seconds(), expected.max_seconds());
  EXPECT_EQ(got.sum_seconds(), expected.sum_seconds());
  EXPECT_EQ(got.Report(), expected.Report());
}

TEST(MetricsStripesTest, ConcurrentRecordingGivesExactTotals) {
  // One fresh thread per stripe: threads take stripes round-robin, so the
  // recording covers every stripe and a reader that skipped one would
  // come up short.
  constexpr int kThreads = static_cast<int>(kStripes);
  constexpr int kPerThread = 20000;
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test_events_total");
  Histogram* histogram = registry.GetHistogram("test_latency_seconds");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment(2);
        histogram->Observe(Sample(t * kPerThread + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(counter->Value(), 2 * kTotal);
  EXPECT_EQ(histogram->Count(), kTotal);

  // The merged snapshot equals one histogram that saw every sample.
  LatencyHistogram expected;
  for (int i = 0; i < kThreads * kPerThread; ++i) expected.Record(Sample(i));
  const LatencyHistogram merged = histogram->Snapshot();
  ASSERT_EQ(merged.count(), expected.count());
  for (int b = 0; b < LatencyHistogram::kBucketCount; ++b) {
    EXPECT_EQ(merged.BucketSamples(b), expected.BucketSamples(b)) << b;
  }
  EXPECT_EQ(merged.min_seconds(), expected.min_seconds());
  EXPECT_EQ(merged.max_seconds(), expected.max_seconds());
  EXPECT_EQ(merged.sum_seconds(), expected.sum_seconds());
}

TEST(MetricsRegistryTest, DefaultRegistryIsSingletonAndExports) {
  MetricsRegistry& a = MetricsRegistry::Default();
  MetricsRegistry& b = MetricsRegistry::Default();
  EXPECT_EQ(&a, &b);
  a.GetCounter("test_singleton_total")->Increment();
  std::string error;
  EXPECT_TRUE(MetricsRegistry::ValidateJson(DefaultRegistryJson(), &error))
      << error;
  EXPECT_NE(DefaultRegistryPrometheusText().find("test_singleton_total"),
            std::string::npos);
}

}  // namespace
}  // namespace qkbfly::obs
