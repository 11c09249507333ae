// The one memo mechanism behind every cache in the system: the serving
// layer's doc tier (DocumentFacts) and query tier (CachedAnswer), and the
// EntityRepository::LooseCandidates memo. Each is a ShardedLru over its own
// value type; what differs between them is the key, the value and the
// registry names, never the machinery.
//
// Lock order (qkbfly-lint C2): every instance's shard mutex is the same
// lock class (rank 3, "shard"). No shard mutex is held while `compute`
// runs, so a compute function may call FetchOrCompute on this or any other
// memo — which is how the query tier's compute reaches the doc tier — and
// the memos never nest.
#ifndef QKBFLY_MEMO_SHARDED_LRU_H_
#define QKBFLY_MEMO_SHARDED_LRU_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <initializer_list>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/cache_stats.h"
#include "util/invariants.h"
#include "util/logging.h"

namespace qkbfly::memo {

/// The registry instruments one memo reports through. Counters are
/// process-wide, so several instances of one memo share them; stats()
/// subtracts a construction-time baseline to report one instance's traffic.
struct Instruments {
  obs::Counter* hits = nullptr;       ///< Served without computing.
  obs::Counter* misses = nullptr;     ///< Ran the compute function.
  obs::Counter* evictions = nullptr;  ///< Dropped by the byte budget only.
  obs::Gauge* resident_bytes = nullptr;
  obs::Gauge* resident_entries = nullptr;
};

/// Binds a value type to its memo. The memo's owner specializes it next to
/// the type alias it declares, with
///   static constexpr size_t kDefaultByteBudget;  // Options' default
///   static Instruments Bind();  // GetCounter/GetGauge with literal names
/// (lint rule O1 wants a literal name at every registration call, so the
/// template never builds a metric name itself).
template <typename Value>
struct Traits;

/// Joins key parts with '\x1f', a byte no document id, fingerprint,
/// normalized question or mention contains.
inline std::string JoinKey(std::initializer_list<std::string_view> parts) {
  size_t size = parts.size();
  for (std::string_view part : parts) size += part.size();
  std::string key;
  key.reserve(size);
  for (auto part = parts.begin(); part != parts.end(); ++part) {
    if (part != parts.begin()) key.push_back('\x1f');
    key.append(*part);
  }
  return key;
}

/// A sharded, thread-safe, byte-budgeted LRU memo with single-flight
/// computation: when N threads ask for the same missing key concurrently,
/// exactly one runs `compute` and the others block on its result. Values are
/// immutable once inserted (shared_ptr<const>), so lookups share them.
///
/// A key picks its shard by hash; each shard has its own mutex, LRU list and
/// 1/num_shards of the byte budget. An entry is charged its key, its
/// bookkeeping and Value::ApproxBytes(). In-flight entries are never
/// evicted. `evictions` counts only entries the byte budget forced out;
/// Clear() and EvictAll() drop entries without counting them.
template <typename Value>
class ShardedLru {
 public:
  struct Options {
    size_t byte_budget = Traits<Value>::kDefaultByteBudget;  ///< All shards.
    int num_shards = 8;
  };

  explicit ShardedLru(Options options)
      : options_(options), instruments_(Traits<Value>::Bind()) {
    options_.num_shards = std::max(1, options_.num_shards);
    const size_t shards = static_cast<size_t>(options_.num_shards);
    budget_per_shard_ = options_.byte_budget / shards;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    baseline_ = TotalsNow();
  }
  ShardedLru() : ShardedLru(Options()) {}

  /// Clears on destruction so the resident gauges drop this instance's
  /// contribution.
  ~ShardedLru() { Clear(); }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// Returns the value for `key`, running `compute` (a callable returning
  /// Value) and inserting its result on a miss. `was_hit` (optional) reports
  /// whether this call avoided running `compute` — true both for ready
  /// entries and for joining another thread's in-flight computation. If
  /// `compute` throws, the entry is dropped and every waiter rethrows.
  template <typename Compute>
  std::shared_ptr<const Value> FetchOrCompute(const std::string& key,
                                              const Compute& compute,
                                              bool* was_hit = nullptr) {
    Shard& shard = ShardFor(key);
    std::promise<std::shared_ptr<const Value>> promise;
#if defined(QKBFLY_CHECK_INVARIANTS)
    CacheStats stats_before;
#endif
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
#if defined(QKBFLY_CHECK_INVARIANTS)
      stats_before = TotalsNow();
#endif
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        // Ready entry or another thread's in-flight computation: either way
        // no work runs on this thread, so it counts as a hit.
        instruments_.hits->Increment();
        if (it->second.ready) {
          shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
        }
        auto future = it->second.future;
        lock.unlock();
        if (was_hit != nullptr) *was_hit = true;
        return future.get();  // blocks only while in-flight; rethrows
      }
      instruments_.misses->Increment();
      Entry entry;
      entry.future = promise.get_future().share();
      shard.map.emplace(key, std::move(entry));  // in-flight marker
    }
    if (was_hit != nullptr) *was_hit = false;

    // Compute outside the lock; single-flight guarantees this thread is the
    // only one running `compute` for this key.
    std::shared_ptr<const Value> value;
    try {
      value = std::make_shared<const Value>(compute());
    } catch (...) {
      std::exception_ptr error = std::current_exception();
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.map.erase(key);  // never made it into the LRU
      }
      promise.set_exception(error);  // waiters rethrow from future.get()
      std::rethrow_exception(error);
    }
    promise.set_value(value);

    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.map.find(key);
      // Only the computing thread transitions or erases an in-flight entry,
      // so it is still present and not yet ready.
      QKB_CHECK(it != shard.map.end() && !it->second.ready);
      it->second.ready = true;
      it->second.bytes =
          it->first.size() + sizeof(Entry) + value->ApproxBytes();
      shard.lru.push_front(it->first);
      it->second.lru = shard.lru.begin();
      shard.bytes += it->second.bytes;
      instruments_.resident_bytes->Add(static_cast<int64_t>(it->second.bytes));
      instruments_.resident_entries->Add(1);
      EvictOverBudgetLocked(shard);
      QKBFLY_INVARIANT(CheckShardAccountingLocked(shard),
                       "memo::ShardedLru::FetchOrCompute");
      // Counters are lock-free atomics, so reading the registry totals
      // while holding the shard mutex cannot deadlock.
      QKBFLY_INVARIANT(CheckCacheStatsMonotonic(stats_before, TotalsNow()),
                       "memo::ShardedLru::FetchOrCompute");
    }
    return value;
  }

  /// Hit/miss/eviction counters of this instance since construction.
  CacheStats stats() const { return TotalsNow() - baseline_; }

  /// Total charged bytes of ready entries.
  size_t ApproxBytesUsed() const {
    size_t bytes = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      bytes += shard->bytes;
    }
    return bytes;
  }

  /// Ready entries currently resident.
  size_t entry_count() const {
    size_t count = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      count += shard->lru.size();
    }
    return count;
  }

  size_t byte_budget() const { return options_.byte_budget; }

  /// Drops all ready entries. In-flight computations are untouched: they
  /// complete, fulfil their waiters and insert as usual.
  void Clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      instruments_.resident_bytes->Add(-static_cast<int64_t>(shard->bytes));
      instruments_.resident_entries->Add(
          -static_cast<int64_t>(shard->lru.size()));
      for (const std::string& key : shard->lru) shard->map.erase(key);
      shard->lru.clear();
      shard->bytes = 0;
      QKBFLY_INVARIANT(CheckShardAccountingLocked(*shard),
                       "memo::ShardedLru::Clear");
    }
  }

  /// Clear() once per advance of `epoch` past the last epoch seen
  /// (idempotent per epoch). A memo whose keys carry no epoch relies on
  /// this call to stop serving values of an old corpus.
  void EvictAll(uint64_t epoch) {
    uint64_t seen = epoch_.load();
    do {
      if (seen >= epoch) return;
    } while (!epoch_.compare_exchange_weak(seen, epoch));
    Clear();
  }

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const Value>> future;
    bool ready = false;
    size_t bytes = 0;
    std::list<std::string>::iterator lru;  ///< Valid only when ready.
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> map;
    std::list<std::string> lru;  ///< Ready keys, most recently used first.
    size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  void EvictOverBudgetLocked(Shard& shard) {
    while (shard.bytes > budget_per_shard_ && !shard.lru.empty()) {
      auto it = shard.map.find(shard.lru.back());
      QKB_CHECK(it != shard.map.end());
      shard.bytes -= it->second.bytes;
      instruments_.resident_bytes->Add(
          -static_cast<int64_t>(it->second.bytes));
      instruments_.resident_entries->Add(-1);
      shard.map.erase(it);
      shard.lru.pop_back();
      instruments_.evictions->Increment();
    }
  }

  CacheStats TotalsNow() const {
    CacheStats totals;
    totals.hits = instruments_.hits->Value();
    totals.misses = instruments_.misses->Value();
    totals.evictions = instruments_.evictions->Value();
    return totals;
  }

  /// Recomputes ready-entry bytes/counts and compares them with the shard's
  /// running counters (util/invariants.h). Requires shard.mutex held. Always
  /// compiled; called only under QKBFLY_CHECK_INVARIANTS.
  static std::string CheckShardAccountingLocked(const Shard& shard) {
    size_t bytes = 0;
    size_t ready = 0;
    for (const auto& [key, entry] : shard.map) {
      if (!entry.ready) continue;
      bytes += entry.bytes;
      ++ready;
    }
    return CheckCacheShardAccounting(shard.bytes, bytes, shard.lru.size(),
                                     ready);
  }

  Options options_;
  Instruments instruments_;
  size_t budget_per_shard_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> epoch_{0};  ///< Last epoch EvictAll acted on.
  CacheStats baseline_;
};

}  // namespace qkbfly::memo

#endif  // QKBFLY_MEMO_SHARDED_LRU_H_
