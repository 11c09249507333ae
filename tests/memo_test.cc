// memo::ShardedLru under concurrency: ready hits from several threads,
// waiters on an in-flight computation, Insert replacing a ready key, and
// Clear / EvictAll racing lookups. Every returned value must be the one its
// key published, and hits + misses must equal the lookups made. Built with
// QKBFLY_CHECK_INVARIANTS, every publish, Insert and Clear also recounts its
// shard's accounting. Runs under ThreadSanitizer (-L tsan) and
// AddressSanitizer (-L asan).
#include "memo/sharded_lru.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace qkbfly {

/// A memo value that says which key computed it and which Insert
/// generation (0 when computed) published it.
struct ProbeValue {
  uint64_t key = 0;
  uint64_t version = 0;
  size_t ApproxBytes() const { return 64; }
};

namespace memo {
template <>
struct Traits<ProbeValue> {
  static constexpr size_t kDefaultByteBudget = size_t{1} << 20;
  static Instruments Bind() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    Instruments m;
    m.hits = registry.GetCounter("memo_test_hits_total");
    m.misses = registry.GetCounter("memo_test_misses_total");
    m.evictions = registry.GetCounter("memo_test_evictions_total");
    m.resident_bytes = registry.GetGauge("memo_test_resident_bytes");
    m.resident_entries = registry.GetGauge("memo_test_resident_entries");
    return m;
  }
};
}  // namespace memo

namespace {

using ProbeMemo = memo::ShardedLru<ProbeValue>;

constexpr int kThreads = 4;
constexpr uint64_t kKeys = 32;

std::string Key(uint64_t i) { return memo::JoinKey({"key", std::to_string(i)}); }

ProbeMemo::Options TwoShards() {
  ProbeMemo::Options options;
  options.num_shards = 2;
  return options;
}

TEST(ShardedLruConcurrencyTest, ReadyHitsShareThePublishedValue) {
  ProbeMemo memo(TwoShards());
  std::vector<std::shared_ptr<const ProbeValue>> published;
  for (uint64_t i = 0; i < kKeys; ++i) {
    published.push_back(
        memo.FetchOrCompute(Key(i), [i] { return ProbeValue{i, 0}; }));
  }
  const CacheStats before = memo.stats();

  constexpr int kLookups = 20000;
  std::atomic<int> wrong{0};
  std::atomic<int> computed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int n = 0; n < kLookups; ++n) {
        const uint64_t i = static_cast<uint64_t>(t * 7 + n * 13) % kKeys;
        bool hit = false;
        auto value = memo.FetchOrCompute(
            Key(i),
            [&] {
              ++computed;
              return ProbeValue{i, 0};
            },
            &hit);
        if (!hit || value != published[i]) ++wrong;
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(computed.load(), 0);
  const CacheStats delta = memo.stats() - before;
  EXPECT_EQ(delta.hits, uint64_t{kThreads} * kLookups);
  EXPECT_EQ(delta.misses, 0u);
  EXPECT_EQ(memo.entry_count(), kKeys);
}

TEST(ShardedLruConcurrencyTest, InFlightWaitersShareTheComputedValue) {
  ProbeMemo memo(TwoShards());
  const CacheStats before = memo.stats();
  std::atomic<bool> release{false};
  std::shared_ptr<const ProbeValue> computed;
  std::thread owner([&] {
    computed = memo.FetchOrCompute("slow", [&] {
      while (!release.load()) std::this_thread::yield();
      return ProbeValue{7, 0};
    });
  });
  while ((memo.stats() - before).misses < 1) std::this_thread::yield();

  // The key is in flight: Insert leaves it to its computation.
  EXPECT_EQ(memo.Insert("slow", ProbeValue{55, 1})->key, 55u);

  constexpr int kWaiters = kThreads - 1;
  std::array<std::shared_ptr<const ProbeValue>, kWaiters> results;
  std::array<bool, kWaiters> hits{};
  std::atomic<int> recomputed{0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      results[static_cast<size_t>(w)] = memo.FetchOrCompute(
          "slow",
          [&] {
            ++recomputed;
            return ProbeValue{99, 0};
          },
          &hits[static_cast<size_t>(w)]);
    });
  }
  // A waiter counts its hit before it blocks on the in-flight future.
  while ((memo.stats() - before).hits < static_cast<uint64_t>(kWaiters)) {
    std::this_thread::yield();
  }
  release.store(true);
  owner.join();
  for (std::thread& w : waiters) w.join();

  ASSERT_NE(computed, nullptr);
  EXPECT_EQ(computed->key, 7u);
  EXPECT_EQ(recomputed.load(), 0);
  for (int w = 0; w < kWaiters; ++w) {
    EXPECT_TRUE(hits[static_cast<size_t>(w)]);
    EXPECT_EQ(results[static_cast<size_t>(w)], computed);
  }
  // Once ready, a hit hands out the same value.
  bool hit = false;
  EXPECT_EQ(memo.FetchOrCompute("slow", [] { return ProbeValue{}; }, &hit),
            computed);
  EXPECT_TRUE(hit);
  const CacheStats delta = memo.stats() - before;
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.hits, static_cast<uint64_t>(kWaiters) + 1);
}

TEST(ShardedLruConcurrencyTest, InsertReplacesAReadyValueUnderHits) {
  ProbeMemo memo(TwoShards());
  (void)memo.Insert("key", ProbeValue{1, 0});
  const CacheStats before = memo.stats();

  constexpr uint64_t kVersions = 500;
  constexpr int kReaders = kThreads - 1;
  std::atomic<bool> done{false};
  std::atomic<int> wrong{0};
  std::atomic<int> computed{0};
  std::array<uint64_t, kReaders> lookups{};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t last = 0;
      uint64_t& count = lookups[static_cast<size_t>(r)];
      do {
        auto value = memo.FetchOrCompute("key", [&] {
          ++computed;
          return ProbeValue{};
        });
        ++count;
        // Insert and lookups serialize on the shard mutex, so one thread
        // never sees an older generation after a newer one.
        if (value->key != 1 || value->version < last) ++wrong;
        last = value->version;
      } while (!done.load());
    });
  }
  threads.emplace_back([&] {
    for (uint64_t v = 1; v <= kVersions; ++v) {
      if (memo.Insert("key", ProbeValue{1, v})->version != v) ++wrong;
    }
    done.store(true);
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(computed.load(), 0);
  EXPECT_EQ(memo.FetchOrCompute("key", [] { return ProbeValue{}; })->version,
            kVersions);
  uint64_t made = 1;
  for (uint64_t count : lookups) made += count;
  const CacheStats delta = memo.stats() - before;
  EXPECT_EQ(delta.hits, made);
  EXPECT_EQ(delta.misses, 0u);
  EXPECT_EQ(memo.entry_count(), 1u);
}

TEST(ShardedLruConcurrencyTest, ClearAndEvictAllRaceLookups) {
  obs::Gauge* resident_bytes =
      obs::MetricsRegistry::Default().GetGauge("memo_test_resident_bytes");
  obs::Gauge* resident_entries =
      obs::MetricsRegistry::Default().GetGauge("memo_test_resident_entries");
  const int64_t bytes_before = resident_bytes->Value();
  const int64_t entries_before = resident_entries->Value();
  {
    // About half the keys fit, so the byte budget evicts during the race.
    ProbeMemo::Options options = TwoShards();
    options.byte_budget = kKeys / 2 * 160;
    ProbeMemo memo(options);
    const CacheStats before = memo.stats();

    constexpr int kLookups = 20000;
    constexpr int kLookupThreads = kThreads - 1;
    std::atomic<bool> done{false};
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kLookupThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int n = 0; n < kLookups; ++n) {
          const uint64_t i = static_cast<uint64_t>(t * 5 + n * 11) % kKeys;
          auto value =
              memo.FetchOrCompute(Key(i), [i] { return ProbeValue{i, 0}; });
          if (value->key != i) ++wrong;
        }
      });
    }
    threads.emplace_back([&] {
      uint64_t epoch = 0;
      while (!done.load()) {
        memo.Clear();
        memo.EvictAll(++epoch);
        std::this_thread::yield();
      }
    });
    for (int t = 0; t < kLookupThreads; ++t) threads[static_cast<size_t>(t)].join();
    done.store(true);
    threads.back().join();

    EXPECT_EQ(wrong.load(), 0);
    const CacheStats delta = memo.stats() - before;
    EXPECT_EQ(delta.hits + delta.misses,
              uint64_t{kLookupThreads} * kLookups);
    EXPECT_GE(delta.misses, kKeys);
    EXPECT_LE(memo.ApproxBytesUsed(), memo.byte_budget());
    memo.Clear();
    EXPECT_EQ(memo.entry_count(), 0u);
    EXPECT_EQ(memo.ApproxBytesUsed(), 0u);
  }
  EXPECT_EQ(resident_bytes->Value(), bytes_before);
  EXPECT_EQ(resident_entries->Value(), entries_before);
}

}  // namespace
}  // namespace qkbfly
