// Entity repository (the Yago stand-in): known entities with alias names,
// semantic types and gender. Only alias and gender knowledge is used by
// QKBfly, exactly as the paper restricts its use of Yago.
#ifndef QKBFLY_KB_ENTITY_REPOSITORY_H_
#define QKBFLY_KB_ENTITY_REPOSITORY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kb/type_system.h"
#include "memo/sharded_lru.h"
#include "nlp/lexicon.h"
#include "nlp/ner.h"
#include "util/cache_stats.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/symbol_table.h"

namespace qkbfly {

using EntityId = uint32_t;
inline constexpr EntityId kInvalidEntity = 0xFFFFFFFFu;

/// One repository entity.
struct Entity {
  EntityId id = kInvalidEntity;
  std::string canonical_name;
  std::vector<std::string> aliases;  ///< Includes the canonical name.
  std::vector<TypeId> types;         ///< Most-specific types.
  Gender gender = Gender::kUnknown;  ///< For PERSON entities when known.
};

/// One memoized LooseCandidates result.
struct LooseCandidateIds {
  std::vector<EntityId> ids;

  size_t ApproxBytes() const {
    return sizeof(*this) + ids.capacity() * sizeof(EntityId);
  }
};

namespace memo {
template <>
struct Traits<LooseCandidateIds> {
  /// Room for ~4,000 entries at ~134 bytes charged each. The perfbench
  /// build_cold world (seed 1) needs 1,252 entries (168 KB), so a repeated
  /// build never misses.
  static constexpr size_t kDefaultByteBudget = size_t{512} << 10;
  static Instruments Bind();
};
}  // namespace memo

/// The background entity dictionary. Implements Gazetteer so NER can
/// recognize repository names, and provides candidate generation for NED.
/// Thread-compatible once populated: all queries are const and may run
/// concurrently (the LooseCandidates memo is internally synchronized), but
/// AddEntity must not race with queries.
class EntityRepository : public Gazetteer {
 public:
  explicit EntityRepository(const TypeSystem* types) : types_(types) {}

  // Movable (the memo restarts cold, with a fresh stats view); not copyable.
  EntityRepository(EntityRepository&& other) noexcept;
  EntityRepository& operator=(EntityRepository&& other) noexcept;
  EntityRepository(const EntityRepository&) = delete;
  EntityRepository& operator=(const EntityRepository&) = delete;

  /// Registers an entity; `aliases` need not contain the canonical name.
  EntityId AddEntity(std::string_view canonical_name,
                     const std::vector<std::string>& aliases,
                     const std::vector<TypeId>& types,
                     Gender gender = Gender::kUnknown);

  const Entity& Get(EntityId id) const;
  size_t size() const { return entities_.size(); }

  /// Entity ids whose alias set contains `alias` (case-insensitive).
  const std::vector<EntityId>& CandidatesForAlias(std::string_view alias) const;

  /// CandidatesForAlias for an already-lowercased alias: probes the index
  /// directly with the view, no temporary string. The hot path folds case
  /// once per mention and reuses the buffer.
  const std::vector<EntityId>& CandidatesForAliasLowered(
      std::string_view lowered_alias) const;

  /// True if any entity carries this alias.
  bool HasAlias(std::string_view alias) const;

  /// Loose candidate generation (Babelfy-style): entities sharing any name
  /// token with the mention ("Kaelen Drax" also proposes every "Kaelen" and
  /// every "Drax"). Exact-alias candidates come first; capped at `limit`.
  /// The hottest repeated lookup in graph building, so results are memoized
  /// in a memo::ShardedLru keyed on (lowercased mention, limit); concurrent
  /// lookups of one missing key compute it once.
  std::vector<EntityId> LooseCandidates(std::string_view mention,
                                        size_t limit) const;

  /// Hit/miss/eviction counters of the LooseCandidates memo. The live
  /// counters are `repo_loose_cache_*_total` in the default metrics
  /// registry; this view subtracts the construction-time baseline so each
  /// instance reports only its own traffic.
  CacheStats loose_cache_stats() const { return loose_memo_->stats(); }

  /// Entity id by exact canonical name.
  StatusOr<EntityId> FindByName(std::string_view canonical_name) const;

  /// Coarse NER category of an entity (via its first type).
  NerType CoarseTypeOf(EntityId id) const;

  /// True iff the entity has a (transitive) type `t`.
  bool HasType(EntityId id, TypeId t) const;

  const TypeSystem& type_system() const { return *types_; }

  // Gazetteer. One walk of a token-level trie keyed on interned symbols:
  // no per-position string building, no per-length hash of a growing
  // candidate, zero allocations on the match path.
  int LongestMatchAt(const std::vector<Token>& tokens, int begin,
                     NerType* type) const override;

 private:
  /// One node of the alias trie. Children are keyed by the interned symbol
  /// of the next alias word; `terminal_type` is the coarse NER type of the
  /// first entity whose alias ends here (mirroring the legacy
  /// `CoarseTypeOf(bucket.front())` choice, which never changes once set).
  struct AliasTrieNode {
    std::unordered_map<Symbol, int32_t> children;
    NerType terminal_type = NerType::kNone;
    bool terminal = false;
  };

  void InsertAliasIntoTrie(const std::string& key, NerType coarse);

  std::vector<EntityId> LooseCandidatesUncached(const std::string& lowered,
                                                size_t limit) const;

  const TypeSystem* types_;
  std::vector<Entity> entities_;
  // Heterogeneous hashing: the densifier probes with string_views over
  // reused buffers, so lookups never build a temporary key.
  std::unordered_map<std::string, std::vector<EntityId>, TransparentStringHash,
                     std::equal_to<>>
      alias_index_;
  std::unordered_map<Symbol, std::vector<EntityId>> token_index_;
  std::unordered_map<std::string, EntityId, TransparentStringHash,
                     std::equal_to<>>
      by_name_;
  std::vector<AliasTrieNode> trie_;  ///< trie_[0] is the root.
  int max_alias_tokens_ = 0;

  // LooseCandidates memo, invalidated wholesale by AddEntity. Behind a
  // pointer so a move can replace it (mutexes do not move).
  using LooseMemo = memo::ShardedLru<LooseCandidateIds>;
  std::unique_ptr<LooseMemo> loose_memo_ = std::make_unique<LooseMemo>();
};

}  // namespace qkbfly

#endif  // QKBFLY_KB_ENTITY_REPOSITORY_H_
