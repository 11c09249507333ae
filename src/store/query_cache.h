// The query-level cache tier: whole answered queries, keyed by (normalized
// question, corpus epoch, engine-config fingerprint). Sits above the
// per-document doc tier — a hit here skips retrieval, per-document
// extraction AND canonicalization. The cached value shares the immutable KB
// the answer was built as (or, for a stored QA pair, deserialized into
// once), so a hit hands out that very object: no copy, no parse, and the
// same bytes as the cold build by construction.
//
// The tier is a memo::ShardedLru<CachedAnswer> (memo/sharded_lru.h) that
// reports through `query_cache_{hits,misses,evictions}_total` and the
// `query_cache_resident_*` gauges.
#ifndef QKBFLY_STORE_QUERY_CACHE_H_
#define QKBFLY_STORE_QUERY_CACHE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "canon/onthefly_kb.h"
#include "corpus/document.h"
#include "memo/sharded_lru.h"

namespace qkbfly {

/// One cached answered query.
struct CachedAnswer {
  std::shared_ptr<const OnTheFlyKb> kb;  ///< The answer's KB, never null.
  std::vector<std::string> answers;      ///< Rendered top facts, ranked.
  size_t documents = 0;                  ///< Documents retrieved for the answer.
  bool from_store = false;               ///< Served from persisted QA pairs.

  /// Charges the shared KB's resident size (OnTheFlyKb::ApproxBytes).
  size_t ApproxBytes() const;
};

/// The query tier's key: normalized query, corpus epoch, and engine
/// fingerprint, '\x1f'-joined. Epoch in the key means a corpus bump
/// naturally misses — EvictAll() only reclaims the dead entries' memory.
std::string QueryKey(std::string_view normalized_query, CorpusEpoch epoch,
                     std::string_view fingerprint);

namespace memo {
template <>
struct Traits<CachedAnswer> {
  static constexpr size_t kDefaultByteBudget = size_t{32} << 20;
  static Instruments Bind();
};
}  // namespace memo

using QueryKbCache = memo::ShardedLru<CachedAnswer>;

}  // namespace qkbfly

#endif  // QKBFLY_STORE_QUERY_CACHE_H_
