// The query-level cache tier: whole answered questions as QA pairs ("QA Is
// the New KR"), keyed by (normalized question, corpus epoch, engine-config
// fingerprint). Sits above the per-document doc tier — a hit here skips
// retrieval, per-document extraction AND canonicalization. The FactStore
// owns the tier: Save writes its resident pairs and Load fills it. A pair
// answered in this process shares the immutable KB the answer was built as,
// so a hit hands out that very object: no copy, no parse, and the same
// bytes as the cold build by construction. A pair read from a snapshot holds
// its serialized KB until its first hit deserializes it.
//
// The tier is a memo::ShardedLru<QaPair> (memo/sharded_lru.h) under one byte
// budget that reports through `query_cache_{hits,misses,evictions}_total`
// and the `query_cache_resident_*` gauges.
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

/// One answered question. `question` is the normalized form (see
/// NormalizeQuestion); `fingerprint` is the producing engine's config
/// fingerprint, so pairs from differently-configured engines never serve
/// each other. A pair answered in this process sets `kb`; a pair read by
/// FactStore::Load sets `kb_bytes` instead.
struct QaPair {
  std::string question;
  std::string fingerprint;
  CorpusEpoch epoch = 0;
  size_t documents = 0;              ///< Documents retrieved for the answer.
  std::vector<std::string> answers;  ///< Rendered top facts, ranked.
  std::shared_ptr<const OnTheFlyKb> kb;  ///< Shared with every hit.
  std::string kb_bytes;  ///< OnTheFlyKb::Serialize output of a loaded pair.

  /// Charges the strings and the shared KB's resident size
  /// (OnTheFlyKb::ApproxBytes).
  size_t ApproxBytes() const;
};

/// Lowercases, strips punctuation, and collapses whitespace: the question
/// part of the tier's key. The result holds only [a-z0-9 ].
std::string NormalizeQuestion(std::string_view question);

/// The query tier's key: normalized question, corpus epoch, and engine
/// fingerprint, '\x1f'-joined. Epoch in the key means a corpus bump
/// naturally misses — FactStore::SetEpoch only reclaims the dead entries'
/// memory.
std::string QueryKey(std::string_view normalized_query, CorpusEpoch epoch,
                     std::string_view fingerprint);

namespace memo {
template <>
struct Traits<QaPair> {
  static constexpr size_t kDefaultByteBudget = size_t{32} << 20;
  static Instruments Bind();
};
}  // namespace memo

using QueryKbCache = memo::ShardedLru<QaPair>;

}  // namespace qkbfly

#endif  // QKBFLY_STORE_QUERY_CACHE_H_
