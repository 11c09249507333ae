// Debug-only runtime invariant checks for the structures whose silent
// corruption would break the determinism contract (byte-identical KBs across
// warm/cold/serial/N-thread builds) long before a test notices.
//
// The Check* functions are compiled in every build and return an empty
// string when the invariant holds (a violation description otherwise), so
// tests can exercise them in any tree. The hot-path call sites are wired
// through QKBFLY_INVARIANT, which compiles to nothing unless the build sets
// -DQKBFLY_CHECK_INVARIANTS=1 (CMake option QKBFLY_CHECK_INVARIANTS=ON).
//
// Only layer-free checks live here: util/ sits at the bottom of the include
// DAG (lint rule L1), so checkers that inspect higher-layer structures live
// next to those structures (graph/graph_invariants.h for SemanticGraph,
// canon/kb_invariants.h for OnTheFlyKb) and share this header's
// EnforceInvariant/QKBFLY_INVARIANT plumbing.
#ifndef QKBFLY_UTIL_INVARIANTS_H_
#define QKBFLY_UTIL_INVARIANTS_H_

#include <cstddef>
#include <string>

#include "util/cache_stats.h"

namespace qkbfly {

/// Cumulative cache counters only grow: `after` must dominate `before`
/// component-wise, and the hit/miss split must keep Lookups() consistent.
std::string CheckCacheStatsMonotonic(const CacheStats& before,
                                     const CacheStats& after);

/// Per-shard bookkeeping of memo::ShardedLru: the recorded byte total must
/// equal the recomputed sum over ready entries, and the LRU list must hold
/// exactly the ready entries.
std::string CheckCacheShardAccounting(size_t recorded_bytes,
                                      size_t recomputed_bytes,
                                      size_t lru_entries, size_t ready_entries);

/// Aborts (QKB_CHECK-style fatal log) when `violation` is non-empty;
/// `site` names the calling subsystem in the failure message.
void EnforceInvariant(const std::string& violation, const char* site);

}  // namespace qkbfly

// Evaluates its argument (and possibly aborts) only in invariant-checking
// builds; otherwise expands to nothing, keeping hot paths unchanged.
#if defined(QKBFLY_CHECK_INVARIANTS)
#define QKBFLY_INVARIANT(violation_expr, site) \
  ::qkbfly::EnforceInvariant((violation_expr), (site))
#else
#define QKBFLY_INVARIANT(violation_expr, site) ((void)0)
#endif

#endif  // QKBFLY_UTIL_INVARIANTS_H_
