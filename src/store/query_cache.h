// The query-level cache tier: whole answered queries, keyed by (normalized
// question, corpus epoch, engine-config fingerprint). Sits above the
// per-document doc tier — a hit here skips retrieval, per-document
// extraction AND canonicalization. The cached value stores the serialized KB
// (OnTheFlyKb::Serialize bytes), so warm answers deserialize to a KB that is
// byte-identical to the cold build (the Serialize/Deserialize round-trip
// contract carries the identity guarantee).
//
// The tier is a memo::ShardedLru<CachedAnswer> (memo/sharded_lru.h) that
// reports through `query_cache_{hits,misses,evictions}_total` and the
// `query_cache_resident_*` gauges.
#ifndef QKBFLY_STORE_QUERY_CACHE_H_
#define QKBFLY_STORE_QUERY_CACHE_H_

#include <string>
#include <string_view>
#include <vector>

#include "corpus/document.h"
#include "memo/sharded_lru.h"

namespace qkbfly {

/// One cached answered query.
struct CachedAnswer {
  std::string kb_bytes;              ///< OnTheFlyKb::Serialize output.
  std::vector<std::string> answers;  ///< Rendered top facts, ranked.
  size_t documents = 0;              ///< Documents retrieved for the answer.
  bool from_store = false;           ///< Served from persisted QA pairs.

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
