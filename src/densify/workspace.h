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
/// empty sentinel (unreachable for the type-signature keys stored here: both
/// halves of a key are below 2^32 - 1). Reset() refills the sentinel in
/// place; the table only ever grows.
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

  // --- literal types (entity types are the repository's type closures) ---
  std::vector<TypeId> literal_type;     ///< Indexed by NodeId.
  std::vector<uint8_t> has_literal_type;

  // --- candidate universes -------------------------------------------------
  // NP universe: the node's means edges ascending (ent(n) in edge order,
  // duplicates preserved). Pronoun universe: distinct gender-compatible
  // entities ascending, each with its (sameAs, means) support pairs; an
  // entity is active iff some pair has both edges active, i.e. iff its live
  // support count is nonzero.
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
  std::vector<uint32_t> means_slot;  ///< EdgeId -> slot in its NP universe.
  std::vector<uint32_t> pro_univ_off;  ///< node_count + 1
  std::vector<PronounCandidate> pro_univ;
  std::vector<SupportPair> pro_pairs;
  // Reverse support index: per edge (means or pronoun-NP sameAs), the
  // pronoun candidates it supports, one entry per support pair it is in,
  // ascending by candidate. `partner` is the pair's other edge, so the pair
  // is active iff the edge and its partner both are.
  struct SupportRef {
    NodeId pronoun;
    uint32_t cand;  ///< Index into pro_univ.
    EdgeId partner;
  };
  std::vector<uint32_t> support_off;  ///< edge_count + 1
  std::vector<SupportRef> support;
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
  // pro_univ_off[p]. pro_live holds each pronoun candidate's live support
  // count, the number of its support pairs with both edges active; the
  // evaluator's own toggles keep it current through the reverse support
  // index. active_mutations is the graph's mutation_count() the lists and
  // counts match; a toggle the evaluator did not make shows up as a
  // mismatch and recounts every count and rebuilds every list.
  std::vector<uint32_t> active;
  std::vector<uint32_t> active_len;  ///< Indexed by NodeId.
  std::vector<uint32_t> pro_live;    ///< Indexed like pro_univ.
  uint64_t active_mutations = 0;

  // --- lane-build memos & scratch ------------------------------------------
  /// Per pattern id: (side key a << 32 | side key b) -> TypeSignatureSum,
  /// where a side key is an entity's type-set id, or a literal's TypeId
  /// tagged with the high bit.
  std::vector<FlatPairCache> ts_caches;
  std::vector<std::pair<const std::string*, BackgroundStats::TypeSignatureTable>>
      patterns;
  std::vector<double> factor_a, factor_b;
  std::vector<uint64_t> ts_key_b;  ///< Side keys of one lane's columns.
  // Coherence row kernel: the columns' entity contexts, one row of
  // WeightedOverlapRow output, and its dense scatter array (one slot per
  // context term, all zero between rows).
  std::vector<const SparseVector*> col_contexts;
  std::vector<double> coh_row;
  std::vector<double> overlap_dense;
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
  // Per changed mention of one Contribution call that loses slots: the
  // universe indices that drop out of its list, ascending, as a slice of
  // removed_pool. Changed mentions that lose nothing have no entry.
  struct RemovedSlots {
    NodeId node = kNoNode;
    uint32_t off = 0;
    uint32_t len = 0;
  };
  std::vector<RemovedSlots> removed;
  std::vector<uint32_t> removed_pool;
  std::vector<EntityId> ents, intersection, inter_tmp;
  std::vector<NodeId> component, dfs_stack;
  std::vector<uint32_t> visit_mark;
  uint32_t visit_epoch = 0;
  std::vector<uint8_t> orig_active;  ///< Means-edge snapshot before Preprocess.

  // --- greedy-loop storage -------------------------------------------------
  // Indexed binary min-heap on (key[e], e): one entry per edge still in
  // play, heap_pos[e] its slot (kNotInHeap once popped), so a changed key
  // sifts in place.
  static constexpr uint32_t kNotInHeap = ~0u;
  std::vector<EdgeId> removable;
  std::vector<uint32_t> eom_off;  ///< Edges-of-mention CSR (node_count + 1).
  std::vector<EdgeId> eom_data;
  std::vector<EdgeId> heap;
  std::vector<uint32_t> heap_pos;  ///< Indexed by EdgeId.
  std::vector<double> key;         ///< Indexed by EdgeId.
  std::vector<uint32_t> dirty_mark;
  uint32_t dirty_epoch = 0;
  std::vector<NodeId> dirty;
};

}  // namespace qkbfly

#endif  // QKBFLY_DENSIFY_WORKSPACE_H_
