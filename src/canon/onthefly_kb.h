// The on-the-fly knowledge base (K): canonicalized facts, emerging entities,
// KB-local relations for unseen patterns, and the search interface the
// QKBfly demo exposes (including Type:-prefixed type search, Figure 3).
#ifndef QKBFLY_CANON_ONTHEFLY_KB_H_
#define QKBFLY_CANON_ONTHEFLY_KB_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "canon/fact.h"
#include "kb/entity_repository.h"
#include "kb/pattern_repository.h"
#include "kb/type_system.h"
#include "util/status.h"

namespace qkbfly {

/// An entity discovered on the fly that is not in the background repository.
struct EmergingEntity {
  EmergingId id = 0;
  std::string representative;        ///< Longest mention of the cluster.
  std::vector<std::string> mentions;
  NerType ner = NerType::kNone;
};

/// A query-specific knowledge base built by QKBfly.
class OnTheFlyKb {
 public:
  OnTheFlyKb(const EntityRepository* repository, const PatternRepository* patterns)
      : repository_(repository), patterns_(patterns) {}

  /// Adds a fact, merging it with an existing equivalent fact (same subject,
  /// canonical relation and arguments) by keeping the higher confidence.
  /// When several stored facts are equivalent (a deserialized stream may
  /// hold them), the earliest absorbs the fact. Expected O(1): facts are
  /// found through a hash index.
  void AddFact(Fact fact);

  /// Registers an emerging entity cluster; returns its id.
  EmergingId AddEmergingEntity(std::string representative,
                               std::vector<std::string> mentions, NerType ner);

  /// Synset id for a relation pattern: the pattern repository's id if known,
  /// otherwise a KB-local id minted for the new relation (ids above
  /// patterns().size()).
  RelationId RelationFor(std::string_view pattern);

  /// Display name of a relation id (canonical synset name or new pattern).
  const std::string& RelationName(RelationId id) const;

  /// Display name of an argument.
  std::string ArgName(const FactArg& arg) const;

  /// Renders a fact as "<subject, relation, arg1, arg2>".
  std::string FactToString(const Fact& fact) const;

  const std::vector<Fact>& facts() const { return facts_; }
  const std::vector<EmergingEntity>& emerging_entities() const { return emerging_; }
  const EmergingEntity& emerging(EmergingId id) const { return emerging_.at(id); }

  size_t size() const { return facts_.size(); }
  size_t triple_count() const;        ///< Facts with arity exactly 2 (SPO).
  size_t higher_arity_count() const;  ///< Facts with arity 3+.

  /// The demo's search box: each filter is a substring match on the
  /// rendered subject / predicate / any object; a "Type:NAME" subject or
  /// object filter instead matches entities carrying that semantic type.
  /// Empty filters match everything.
  std::vector<const Fact*> Search(std::string_view subject_filter,
                                  std::string_view predicate_filter,
                                  std::string_view object_filter) const;

  const EntityRepository& repository() const { return *repository_; }

  /// Deterministic, byte-stable text serialization of the whole KB: emerging
  /// entities in id order, KB-local relations in id order, facts in stored
  /// (first-occurrence input) order, every field tab-separated and escaped.
  /// Two KBs built from the same inputs serialize to identical bytes, so the
  /// output doubles as the canonical identity digest for warm/cold checks
  /// and as the value format of the query-level cache and fact store.
  std::string Serialize() const;

  /// Serialize() into `buffer`, replacing its contents; a buffer reused
  /// across KBs keeps its capacity.
  void SerializeInto(std::string* buffer) const;

  /// Rebuilds this KB from Serialize() output. The KB must be empty and
  /// bound to the same repositories the serialized KB was built against
  /// (entity and relation ids are repository-relative). Round-trip contract:
  /// when Deserialize(s) succeeds, Serialize() reproduces s field for field:
  /// every field byte for byte except a fact's confidence, which round-trips
  /// by value (any finite decimal spelling std::from_chars reads in full, so
  /// no leading '+', whitespace or hex float; re-printed with 17 significant
  /// digits, as %.17g prints). Integers must be spelled as Serialize prints
  /// them and fit their field, so no input aliases another id. On failure
  /// the KB is left empty.
  Status Deserialize(std::string_view data);

  /// Releases the spare capacity of the fact, emerging-entity and relation
  /// vectors, and drops AddFact's index (a later AddFact rebuilds it).
  /// Called once on a finished KB before it is shared read-only.
  void ShrinkToFit();

  /// Estimated resident heap size of this KB: the object, its vectors'
  /// capacity and every string that outgrew the small-string buffer. For
  /// text without escape characters it is at least Serialize().size(), so
  /// byte budgets that charge it do not undercount the serialized form.
  size_t ApproxBytes() const;

 private:
  bool ArgMatches(const FactArg& arg, std::string_view filter) const;
  bool TypeMatches(const FactArg& arg, std::string_view type_name) const;

  const EntityRepository* repository_;
  const PatternRepository* patterns_;
  std::vector<Fact> facts_;
  /// AddFact's merge index: equivalence hash -> position in facts_, over
  /// facts_[0, indexed_facts_). AddFact indexes the rest first, so facts
  /// Deserialize appended join lazily. Build-time state only: ShrinkToFit
  /// drops it and ApproxBytes does not charge it.
  std::unordered_multimap<size_t, size_t> fact_index_;
  size_t indexed_facts_ = 0;
  std::vector<EmergingEntity> emerging_;
  std::unordered_map<std::string, RelationId> new_relations_;
  std::vector<std::string> new_relation_names_;
};

}  // namespace qkbfly

#endif  // QKBFLY_CANON_ONTHEFLY_KB_H_
