// Retained per-thread storage for the flat-lane densifier. Every
// per-document structure the evaluator and the greedy loop need — candidate
// universes, per-edge weight lanes, loop scratch — lives here in contiguous
// vectors that are cleared (capacity kept) between documents, so steady-state
// densification performs no heap allocations.
#ifndef QKBFLY_DENSIFY_WORKSPACE_H_
#define QKBFLY_DENSIFY_WORKSPACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "corpus/background_stats.h"
#include "graph/semantic_graph.h"
#include "util/sparse_vector.h"

namespace qkbfly {

/// Open-addressing u64 -> double memo with linear probing. Key ~0 is the
/// empty sentinel (unreachable for the entity/type keys stored here: valid
/// entity ids are < kInvalidEntity and uncacheable keys bypass the memo).
/// Reset() refills the sentinel in place; the table only ever grows.
class FlatPairCache {
 public:
  static constexpr uint64_t kEmptyKey = ~0ull;

  void Reset(size_t expected) {
    size_t want = 16;
    while (want < expected * 2) want <<= 1;
    if (want > keys_.size()) {
      keys_.resize(want);
      values_.resize(want);
    }
    std::fill(keys_.begin(), keys_.end(), kEmptyKey);
    count_ = 0;
  }

  const double* Lookup(uint64_t key) const {
    if (keys_.empty()) return nullptr;
    size_t mask = keys_.size() - 1;
    for (size_t i = key & mask;; i = (i + 1) & mask) {
      if (keys_[i] == key) return &values_[i];
      if (keys_[i] == kEmptyKey) return nullptr;
    }
  }

  void Insert(uint64_t key, double value) {
    if (keys_.empty() || (count_ + 1) * 4 > keys_.size() * 3) Grow();
    size_t mask = keys_.size() - 1;
    for (size_t i = key & mask;; i = (i + 1) & mask) {
      if (keys_[i] == kEmptyKey) {
        keys_[i] = key;
        values_[i] = value;
        ++count_;
        return;
      }
    }
  }

 private:
  void Grow() {
    std::vector<uint64_t> old_keys;
    std::vector<double> old_values;
    old_keys.swap(keys_);
    old_values.swap(values_);
    keys_.assign(old_keys.empty() ? 16 : old_keys.size() * 2, kEmptyKey);
    values_.assign(keys_.size(), 0.0);
    count_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmptyKey) Insert(old_keys[i], old_values[i]);
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<double> values_;
  size_t count_ = 0;
};

/// All retained densify storage. The DensifyEvaluator populates the
/// universe/lane sections during construction and reads/writes the scratch
/// sections while running; the greedy loop owns the loop section. Fields are
/// plain so both can index them directly.
struct DensifyWorkspace {
  // --- edge lists (ascending EdgeId) ---------------------------------------
  std::vector<EdgeId> means_edges;
  std::vector<EdgeId> relation_edges;

  // --- per-node surface data -----------------------------------------------
  std::vector<std::string> lowered;  ///< Lowercased node text (mention nodes).
  std::vector<const std::vector<EntityId>*> exact;  ///< Exact-alias candidates.
  std::vector<uint8_t> has_context;       ///< Node has a mention context.
  std::vector<SparseVector> sentence_contexts;  ///< Shared per sentence.
  std::vector<uint8_t> sentence_built;
  std::string scratch;

  // --- entity / literal types ----------------------------------------------
  struct TypeRef {
    uint32_t off = 0;
    uint32_t len = 0;
  };
  std::vector<TypeId> type_pool;
  std::vector<TypeRef> types_of_node;   ///< Indexed by entity NodeId.
  std::vector<TypeId> literal_type;     ///< Indexed by NodeId.
  std::vector<uint8_t> has_literal_type;

  // --- candidate universes -------------------------------------------------
  // NP universe: the node's means edges ascending (ent(n) in edge order,
  // duplicates preserved). Pronoun universe: distinct gender-compatible
  // entities ascending, each with its (sameAs, means) support pairs; an
  // entity is active iff some pair has both edges active.
  struct MeansCandidate {
    EdgeId edge;
    NodeId entity_node;
    EntityId entity;
  };
  struct PronounCandidate {
    EntityId entity;
    NodeId entity_node;
    uint32_t pair_begin;
    uint32_t pair_end;
  };
  struct SupportPair {
    EdgeId same_as;
    EdgeId means;
  };
  std::vector<uint32_t> np_univ_off;  ///< node_count + 1
  std::vector<MeansCandidate> np_univ;
  std::vector<uint32_t> pro_univ_off;  ///< node_count + 1
  std::vector<PronounCandidate> pro_univ;
  std::vector<SupportPair> pro_pairs;
  // Per noun phrase, its sameAs links to pronouns (the pronouns a means
  // edge of the noun phrase can change).
  struct PronounLink {
    EdgeId same_as;
    NodeId pronoun;
  };
  std::vector<uint32_t> np_links_off;  ///< node_count + 1
  std::vector<PronounLink> np_links;

  // --- weight lanes --------------------------------------------------------
  // Means lane: mw[e] for every means edge. Relation lanes: per relation
  // edge, a dense |Ua| x |Ub| coherence matrix and a (|Ua|+1) x (|Ub|+1)
  // type-signature matrix (the extra row/column is the literal fallback used
  // when a side's active candidate set is empty); looseness factors are
  // folded into every entry, so evaluating an edge is a gather-and-sum.
  // Relation entries are fixed-point integers (value * kLaneOne, rounded):
  // integer sums are exact and order-free, so a removal's effect on a lane is
  // the sum over the removed rows and columns alone.
  static constexpr double kLaneOne = 4294967296.0;  ///< 2^32
  struct RelationLane {
    EdgeId edge = -1;
    NodeId a = kNoNode;
    NodeId b = kNoNode;
    uint32_t coh_off = 0;
    uint32_t ts_off = 0;
    uint32_t ua_len = 0;
    uint32_t ub_len = 0;
    uint32_t act_a = 0;  ///< Offset of a's committed list in `active`.
    uint32_t act_b = 0;  ///< Offset of b's committed list in `active`.
    bool lit_a = false;
    bool lit_b = false;
  };
  std::vector<double> mw_lane;       ///< Indexed by EdgeId (means edges).
  std::vector<RelationLane> rel_lanes;
  std::vector<int32_t> lane_of_edge;  ///< EdgeId -> lane index, -1 otherwise.
  std::vector<uint32_t> node_lanes_off;  ///< node_count + 1
  std::vector<uint32_t> node_lanes;      ///< Lanes at each endpoint, ascending.
  std::vector<int64_t> coh_pool;
  std::vector<int64_t> ts_pool;

  // --- committed active lists ----------------------------------------------
  // Each mention's active universe indices under the committed flags, in
  // universe order: a CSR over the universes, where noun phrase n's list
  // starts at np_univ_off[n] and pronoun p's at np_univ.size() +
  // pro_univ_off[p]. active_mutations is the graph's mutation_count() the
  // lists match; a toggle the evaluator did not make shows up as a mismatch
  // and rebuilds every list.
  std::vector<uint32_t> active;
  std::vector<uint32_t> active_len;  ///< Indexed by NodeId.
  uint64_t active_mutations = 0;

  // --- lane-build memos & scratch ------------------------------------------
  FlatPairCache coherence_cache;  ///< (e1 << 32 | e2) -> Coherence.
  std::vector<FlatPairCache> ts_caches;  ///< Per pattern id.
  std::vector<std::pair<const std::string*, BackgroundStats::TypeSignatureTable>>
      patterns;
  std::vector<double> factor_a, factor_b;
  struct PronounTriple {
    EntityId entity;
    NodeId entity_node;
    EdgeId same_as;
    EdgeId means;
  };
  std::vector<PronounTriple> pro_triples;

  // --- evaluator runtime scratch -------------------------------------------
  std::vector<uint32_t> cursor;          ///< Counting-sort cursor scratch.
  std::vector<NodeId> sources;           ///< ChangedMentionsInto buffer.
  // Per changed mention of one Contribution call: its list with the edge
  // removed (kept, in universe order) and the indices that drop out
  // (removed, in any order), as slices of delta_pool.
  struct SourceDelta {
    uint32_t kept_off = 0;
    uint32_t kept_len = 0;
    uint32_t removed_off = 0;
    uint32_t removed_len = 0;
  };
  std::vector<SourceDelta> deltas;
  std::vector<uint32_t> delta_pool;
  std::vector<EntityId> ents, intersection, inter_tmp;
  std::vector<NodeId> component, dfs_stack;
  std::vector<uint32_t> visit_mark;
  uint32_t visit_epoch = 0;
  std::vector<uint8_t> orig_active;  ///< Means-edge snapshot before Preprocess.

  // --- greedy-loop storage -------------------------------------------------
  struct HeapEntry {
    double c = 0.0;
    EdgeId e = -1;
    uint32_t version = 0;
  };
  std::vector<EdgeId> removable;
  std::vector<uint32_t> eom_off;  ///< Edges-of-mention CSR (node_count + 1).
  std::vector<EdgeId> eom_data;
  std::vector<uint32_t> version;
  std::vector<HeapEntry> heap;
  std::vector<uint32_t> dirty_mark;
  uint32_t dirty_epoch = 0;
  std::vector<NodeId> dirty;
  std::vector<NodeId> changed;  ///< ChangedMentionsInto of the last removal.
};

}  // namespace qkbfly

#endif  // QKBFLY_DENSIFY_WORKSPACE_H_
