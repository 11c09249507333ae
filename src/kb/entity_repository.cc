#include "kb/entity_repository.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace qkbfly {

EntityRepository::EntityRepository(EntityRepository&& other) noexcept
    : types_(other.types_),
      entities_(std::move(other.entities_)),
      alias_index_(std::move(other.alias_index_)),
      token_index_(std::move(other.token_index_)),
      by_name_(std::move(other.by_name_)),
      trie_(std::move(other.trie_)),
      max_alias_tokens_(other.max_alias_tokens_) {}

EntityRepository& EntityRepository::operator=(EntityRepository&& other) noexcept {
  if (this == &other) return *this;
  types_ = other.types_;
  entities_ = std::move(other.entities_);
  alias_index_ = std::move(other.alias_index_);
  token_index_ = std::move(other.token_index_);
  by_name_ = std::move(other.by_name_);
  trie_ = std::move(other.trie_);
  max_alias_tokens_ = other.max_alias_tokens_;
  loose_memo_ = std::make_unique<LooseMemo>();  // stats view restarts at zero
  return *this;
}

memo::Instruments memo::Traits<LooseCandidateIds>::Bind() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  Instruments m;
  m.hits = registry.GetCounter("repo_loose_cache_hits_total",
                               "LooseCandidates memo hits");
  m.misses = registry.GetCounter("repo_loose_cache_misses_total",
                                 "LooseCandidates memo misses");
  m.evictions = registry.GetCounter("repo_loose_cache_evictions_total",
                                    "LooseCandidates memo entries evicted by "
                                    "the byte budget");
  m.resident_bytes = registry.GetGauge("repo_loose_cache_resident_bytes",
                                       "Ready LooseCandidates bytes resident");
  m.resident_entries = registry.GetGauge(
      "repo_loose_cache_resident_entries",
      "Ready LooseCandidates entries resident");
  return m;
}

EntityId EntityRepository::AddEntity(std::string_view canonical_name,
                                     const std::vector<std::string>& aliases,
                                     const std::vector<TypeId>& types,
                                     Gender gender) {
  EntityId id = static_cast<EntityId>(entities_.size());
  Entity e;
  e.id = id;
  e.canonical_name = std::string(canonical_name);
  e.types = types;
  e.gender = gender;
  e.aliases.push_back(e.canonical_name);
  for (const std::string& a : aliases) {
    if (!EqualsIgnoreCase(a, canonical_name)) e.aliases.push_back(a);
  }
  // Coarse type recorded at the alias's first trie insertion; equals what
  // CoarseTypeOf(bucket.front()) returns at query time, since both the
  // bucket head and an entity's types are immutable once registered.
  NerType coarse = types.empty() ? NerType::kMisc : types_->CoarseOf(types.front());
  TokenSymbols& symbols = TokenSymbols::Get();
  for (const std::string& a : e.aliases) {
    std::string key = Lowercase(a);
    auto& bucket = alias_index_[key];
    if (std::find(bucket.begin(), bucket.end(), id) == bucket.end()) {
      bucket.push_back(id);
    }
    int tokens = 1 + static_cast<int>(std::count(key.begin(), key.end(), ' '));
    max_alias_tokens_ = std::max(max_alias_tokens_, tokens);
    InsertAliasIntoTrie(key, coarse);
    for (const std::string& token : SplitWhitespace(key)) {
      if (token.size() < 3) continue;  // skip particles ("of", "the")
      auto& t_bucket = token_index_[symbols.Intern(token)];
      if (std::find(t_bucket.begin(), t_bucket.end(), id) == t_bucket.end()) {
        t_bucket.push_back(id);
      }
    }
  }
  by_name_.emplace(e.canonical_name, id);
  entities_.push_back(std::move(e));
  // The new aliases can extend any previously cached candidate set.
  loose_memo_->Clear();
  return id;
}

void EntityRepository::InsertAliasIntoTrie(const std::string& key,
                                           NerType coarse) {
  // The matcher compares against lowered token texts joined by single
  // spaces, so a key with irregular whitespace (tabs, doubled or leading
  // spaces) could never match under the legacy string build either — keep
  // those out of the trie so both matchers agree exactly.
  std::vector<std::string> words = SplitWhitespace(key);
  if (words.empty()) return;
  std::string normalized;
  normalized.reserve(key.size());
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) normalized += ' ';
    normalized += words[i];
  }
  if (normalized != key) return;

  if (trie_.empty()) trie_.emplace_back();  // root
  TokenSymbols& symbols = TokenSymbols::Get();
  int32_t node = 0;
  for (const std::string& w : words) {
    Symbol s = symbols.Intern(w);
    auto it = trie_[static_cast<size_t>(node)].children.find(s);
    int32_t next;
    if (it == trie_[static_cast<size_t>(node)].children.end()) {
      next = static_cast<int32_t>(trie_.size());
      trie_[static_cast<size_t>(node)].children.emplace(s, next);
      trie_.emplace_back();
    } else {
      next = it->second;
    }
    node = next;
  }
  AliasTrieNode& terminal = trie_[static_cast<size_t>(node)];
  if (!terminal.terminal) {
    terminal.terminal = true;
    terminal.terminal_type = coarse;
  }
}

const Entity& EntityRepository::Get(EntityId id) const {
  QKB_CHECK_LT(id, entities_.size());
  return entities_[id];
}

const std::vector<EntityId>& EntityRepository::CandidatesForAlias(
    std::string_view alias) const {
  return CandidatesForAliasLowered(Lowercase(alias));
}

const std::vector<EntityId>& EntityRepository::CandidatesForAliasLowered(
    std::string_view lowered_alias) const {
  static const std::vector<EntityId> kEmpty;
  auto it = alias_index_.find(lowered_alias);
  return it == alias_index_.end() ? kEmpty : it->second;
}

bool EntityRepository::HasAlias(std::string_view alias) const {
  return !CandidatesForAlias(alias).empty();
}

std::vector<EntityId> EntityRepository::LooseCandidates(std::string_view mention,
                                                        size_t limit) const {
  // Every index lookup is case-insensitive, so (lowercased mention, limit)
  // fully determines the result.
  std::string lowered = Lowercase(mention);
  return loose_memo_
      ->FetchOrCompute(memo::JoinKey({lowered, std::to_string(limit)}),
                       [&] {
                         return LooseCandidateIds{
                             LooseCandidatesUncached(lowered, limit)};
                       })
      ->ids;
}

std::vector<EntityId> EntityRepository::LooseCandidatesUncached(
    const std::string& lowered, size_t limit) const {
  std::vector<EntityId> out = CandidatesForAlias(lowered);
  // Hash-set membership instead of std::find over the growing result: the
  // quadratic scan dominated for mentions whose name tokens were shared by
  // many entities. The limit check stays before the dedup check so a full
  // result returns at exactly the same point as before.
  std::unordered_set<EntityId> seen(out.begin(), out.end());
  TokenSymbols& symbols = TokenSymbols::Get();
  for (const std::string& token : SplitWhitespace(lowered)) {
    Symbol sym = symbols.Lookup(token);
    if (sym == kNoSymbol) continue;  // never interned => not an alias token
    auto it = token_index_.find(sym);
    if (it == token_index_.end()) continue;
    for (EntityId e : it->second) {
      if (out.size() >= limit) return out;
      if (seen.insert(e).second) out.push_back(e);
    }
  }
  return out;
}

StatusOr<EntityId> EntityRepository::FindByName(
    std::string_view canonical_name) const {
  auto it = by_name_.find(canonical_name);
  if (it == by_name_.end()) {
    return Status::NotFound("no entity named '" + std::string(canonical_name) + "'");
  }
  return it->second;
}

NerType EntityRepository::CoarseTypeOf(EntityId id) const {
  const Entity& e = Get(id);
  if (e.types.empty()) return NerType::kMisc;
  return types_->CoarseOf(e.types.front());
}

bool EntityRepository::HasType(EntityId id, TypeId t) const {
  const Entity& e = Get(id);
  for (TypeId mine : e.types) {
    if (types_->IsA(mine, t)) return true;
  }
  return false;
}

int EntityRepository::LongestMatchAt(const std::vector<Token>& tokens, int begin,
                                     NerType* type) const {
  const int n = static_cast<int>(tokens.size());
  // Names start with a capitalized token; this keeps the gazetteer from
  // matching lowercase common words that happen to be aliases.
  if (begin >= n || !IsCapitalized(tokens[static_cast<size_t>(begin)].text)) {
    return 0;
  }
  if (trie_.empty()) return 0;
  int best_len = 0;
  NerType best_type = NerType::kNone;
  int32_t node = 0;
  for (int len = 1; len <= max_alias_tokens_ && begin + len <= n; ++len) {
    const Token& t = tokens[static_cast<size_t>(begin + len - 1)];
    Symbol sym = t.sym;
    if (sym == kNoSymbol) {
      // Hand-built token that skipped the tokenizer; a word no one interned
      // cannot be an alias word, so a failed lookup ends the walk.
      sym = TokenSymbols::Get().Lookup(t.lower.empty() ? Lowercase(t.text)
                                                       : t.lower);
      if (sym == kNoSymbol) break;
    }
    const AliasTrieNode& cur = trie_[static_cast<size_t>(node)];
    auto it = cur.children.find(sym);
    if (it == cur.children.end()) break;
    node = it->second;
    const AliasTrieNode& next = trie_[static_cast<size_t>(node)];
    if (next.terminal) {
      best_len = len;
      best_type = next.terminal_type;
    }
  }
  if (best_len > 0 && type != nullptr) *type = best_type;
  return best_len;
}

}  // namespace qkbfly
