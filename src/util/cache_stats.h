// Common hit/miss/eviction counters shared by every memo in the system (each
// memo::ShardedLru: the doc tier, the query tier and the
// EntityRepository::LooseCandidates memo), so benches and the serving CLI
// can report them uniformly.
#ifndef QKBFLY_UTIL_CACHE_STATS_H_
#define QKBFLY_UTIL_CACHE_STATS_H_

#include <cstdint>

namespace qkbfly {

/// Counters of one cache. A "hit" is any lookup satisfied without running
/// the underlying computation (including joining an in-flight computation in
/// single-flight caches); a "miss" is a lookup that had to compute; an
/// "eviction" is an entry the byte budget forced out (Clear() and epoch
/// drops are not counted).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  uint64_t Lookups() const { return hits + misses; }

  double HitRate() const {
    uint64_t lookups = Lookups();
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(lookups);
  }

  CacheStats& operator+=(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    return *this;
  }
};

/// a - b, counter-wise; for computing the delta over one workload when the
/// underlying cache counters are cumulative.
inline CacheStats operator-(const CacheStats& a, const CacheStats& b) {
  CacheStats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.evictions = a.evictions - b.evictions;
  return d;
}

}  // namespace qkbfly

#endif  // QKBFLY_UTIL_CACHE_STATS_H_
