#include "service/document_result_cache.h"

#include <algorithm>
#include <utility>

#include "util/invariants.h"
#include "util/logging.h"

namespace qkbfly {

std::string DocumentResultCache::CheckShardAccountingLocked(
    const Shard& shard) {
  size_t bytes = 0;
  size_t ready = 0;
  for (const auto& [key, entry] : shard.map) {
    if (!entry.ready) continue;
    bytes += entry.bytes;
    ++ready;
  }
  return CheckCacheShardAccounting(shard.bytes, bytes, shard.lru.size(), ready);
}

DocumentResultCache::DocumentResultCache(Options options)
    : options_(options) {
  int shards = std::max(1, options_.num_shards);
  options_.num_shards = shards;
  budget_per_shard_ = options_.byte_budget / static_cast<size_t>(shards);
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  hits_ = registry.GetCounter("doc_cache_hits_total",
                              "DocumentResultCache lookups served without "
                              "computing (ready or joined in-flight)");
  misses_ = registry.GetCounter("doc_cache_misses_total",
                                "DocumentResultCache lookups that ran the "
                                "compute function");
  evictions_ = registry.GetCounter("doc_cache_evictions_total",
                                   "DocumentResultCache LRU evictions");
  resident_bytes_ = registry.GetGauge(
      "doc_cache_resident_bytes", "Ready DocumentFacts bytes resident");
  resident_entries_ = registry.GetGauge(
      "doc_cache_resident_entries", "Ready DocumentFacts entries resident");
  baseline_ = TotalsNow();
}

CacheStats DocumentResultCache::TotalsNow() const {
  CacheStats totals;
  totals.hits = hits_->Value();
  totals.misses = misses_->Value();
  totals.evictions = evictions_->Value();
  return totals;
}

DocumentResultCache::Shard& DocumentResultCache::ShardFor(
    const std::string& key) {
  size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

void DocumentResultCache::EvictOverBudgetLocked(Shard& shard) {
  while (shard.bytes > budget_per_shard_ && !shard.lru.empty()) {
    const std::string& victim = shard.lru.back();
    auto it = shard.map.find(victim);
    QKB_CHECK(it != shard.map.end());
    shard.bytes -= it->second.bytes;
    resident_bytes_->Add(-static_cast<int64_t>(it->second.bytes));
    resident_entries_->Add(-1);
    shard.map.erase(it);
    shard.lru.pop_back();
    evictions_->Increment();
  }
}

std::shared_ptr<const DocumentFacts> DocumentResultCache::FetchOrCompute(
    std::string_view doc_id, std::string_view fingerprint,
    const ComputeFn& compute, bool* was_hit) {
  std::string key;
  key.reserve(doc_id.size() + 1 + fingerprint.size());
  key.append(doc_id);
  key.push_back('\x1f');
  key.append(fingerprint);

  Shard& shard = ShardFor(key);
  std::promise<std::shared_ptr<const DocumentFacts>> promise;
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
      // Ready entry or another thread's in-flight computation: either way no
      // work runs on this thread, so it counts as a hit.
      hits_->Increment();
      if (it->second.ready) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
      }
      auto future = it->second.future;
      lock.unlock();
      if (was_hit != nullptr) *was_hit = true;
      return future.get();  // blocks only while in-flight; rethrows failures
    }
    misses_->Increment();
    Entry entry;
    entry.future = promise.get_future().share();
    shard.map.emplace(key, std::move(entry));  // in-flight marker
  }
  if (was_hit != nullptr) *was_hit = false;

  // Compute outside the lock; single-flight guarantees this thread is the
  // only one running `compute` for this key.
  std::shared_ptr<const DocumentFacts> value;
  try {
    value = std::make_shared<const DocumentFacts>(compute());
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
    it->second.bytes = it->first.size() + sizeof(Entry) + value->ApproxBytes();
    shard.lru.push_front(it->first);
    it->second.lru = shard.lru.begin();
    shard.bytes += it->second.bytes;
    resident_bytes_->Add(static_cast<int64_t>(it->second.bytes));
    resident_entries_->Add(1);
    EvictOverBudgetLocked(shard);
    QKBFLY_INVARIANT(CheckShardAccountingLocked(shard),
                     "DocumentResultCache::FetchOrCompute");
    // Counters are lock-free atomics, so reading the registry totals while
    // holding the shard mutex cannot deadlock.
    QKBFLY_INVARIANT(CheckCacheStatsMonotonic(stats_before, TotalsNow()),
                     "DocumentResultCache::FetchOrCompute");
  }
  return value;
}

CacheStats DocumentResultCache::stats() const {
  return TotalsNow() - baseline_;
}

size_t DocumentResultCache::ApproxBytesUsed() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    bytes += shard->bytes;
  }
  return bytes;
}

size_t DocumentResultCache::entry_count() const {
  size_t count = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    count += shard->lru.size();
  }
  return count;
}

void DocumentResultCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    resident_bytes_->Add(-static_cast<int64_t>(shard->bytes));
    resident_entries_->Add(-static_cast<int64_t>(shard->lru.size()));
    for (const std::string& key : shard->lru) shard->map.erase(key);
    shard->lru.clear();
    shard->bytes = 0;
    QKBFLY_INVARIANT(CheckShardAccountingLocked(*shard),
                     "DocumentResultCache::Clear");
  }
}

void DocumentResultCache::EvictAll(CorpusEpoch epoch) {
  CorpusEpoch seen = epoch_.load(std::memory_order_acquire);
  if (seen >= epoch) return;
  epoch_.store(epoch, std::memory_order_release);
  Clear();
}

}  // namespace qkbfly
