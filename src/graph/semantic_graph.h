// The semantic-graph representation of Section 3: clause, noun-phrase,
// pronoun and entity nodes connected by depends, relation, sameAs and means
// edges. One graph covers one document (the per-sentence graphs of the paper
// linked by cross-sentence co-reference edges).
//
// Storage is data-oriented: nodes and edges live in contiguous arrays, and
// adjacency is a CSR index (per-node offset table plus one flat incident-edge
// array) built once after construction, allocated from a per-document bump
// arena. Construction stays append-only; the CSR index is (re)built lazily on
// the first adjacency query after a mutation, so hand-assembled test graphs
// work unchanged while GraphBuilder finalizes eagerly before handing the
// graph to the densifier.
#ifndef QKBFLY_GRAPH_SEMANTIC_GRAPH_H_
#define QKBFLY_GRAPH_SEMANTIC_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clausie/clause.h"
#include "kb/entity_repository.h"
#include "nlp/annotation.h"
#include "nlp/lexicon.h"
#include "text/token.h"
#include "util/arena.h"
#include "util/span.h"

namespace qkbfly {

using NodeId = int;
using EdgeId = int;
inline constexpr NodeId kNoNode = -1;

/// The four node kinds of the semantic graph.
enum class NodeKind : uint8_t { kClause, kNounPhrase, kPronoun, kEntity };
inline constexpr size_t kNodeKindCount = 4;

/// The four edge kinds of the semantic graph.
enum class EdgeKind : uint8_t { kDepends, kRelation, kSameAs, kMeans };

const char* NodeKindName(NodeKind kind);
const char* EdgeKindName(EdgeKind kind);

/// One node. Which fields are meaningful depends on `kind`.
struct GraphNode {
  NodeKind kind = NodeKind::kNounPhrase;

  // Text-anchored nodes (clause / noun-phrase / pronoun):
  int sentence = -1;
  TokenSpan span;
  int head_token = -1;
  std::string text;  ///< Mention surface (without leading determiner for NPs).

  // Noun-phrase nodes:
  NerType ner = NerType::kNone;
  bool is_literal = false;          ///< TIME/NUMBER/plain-string argument.
  std::string normalized_literal;   ///< ISO date etc. when is_literal.

  // Pronoun nodes:
  Gender gender = Gender::kUnknown;
  bool plural_pronoun = false;

  // Entity nodes:
  EntityId entity = kInvalidEntity;

  // Clause nodes:
  int clause_index = -1;
  ClauseType clause_type = ClauseType::kSV;
  std::string relation_pattern;  ///< Full clause pattern, e.g. "donate to".
  bool negated_clause = false;
};

/// One edge. `a`/`b` ordering matters for relation (subject -> argument) and
/// means (mention -> entity) edges.
struct GraphEdge {
  EdgeKind kind = EdgeKind::kDepends;
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  std::string label;   ///< Relation pattern for relation edges ("donate to").
  bool active = true;  ///< The densifier deactivates pruned edges.
  NodeId clause = kNoNode;  ///< Clause node a relation edge derives from
                            ///< (kNoNode for the possessive heuristic).
};

/// Append-only graph structure with adjacency queries that respect the
/// active flags maintained by the densification algorithm.
class SemanticGraph {
 public:
  using EdgeSpan = Span<EdgeId>;
  using NodeSpan = Span<NodeId>;

  SemanticGraph() = default;
  // Copies duplicate the logical graph (nodes, edges, active flags); the CSR
  // index is rebuilt lazily in the copy, never shared. Moves carry the arena
  // (block storage is pointer-stable), so spans taken from the source stay
  // valid against the destination.
  SemanticGraph(const SemanticGraph& other);
  SemanticGraph& operator=(const SemanticGraph& other);
  SemanticGraph(SemanticGraph&& other) noexcept;
  SemanticGraph& operator=(SemanticGraph&& other) noexcept;

  NodeId AddNode(GraphNode node);
  EdgeId AddEdge(GraphEdge edge);

  size_t node_count() const { return nodes_.size(); }
  size_t edge_count() const { return edges_.size(); }

  const GraphNode& node(NodeId id) const { return nodes_.at(static_cast<size_t>(id)); }
  GraphNode& mutable_node(NodeId id) { return nodes_.at(static_cast<size_t>(id)); }
  const GraphEdge& edge(EdgeId id) const { return edges_.at(static_cast<size_t>(id)); }

  /// Builds the CSR adjacency index over the current node/edge set. Idempotent;
  /// adjacency accessors call it lazily, GraphBuilder calls it eagerly so the
  /// densifier starts from an indexed graph. Toggling active flags does NOT
  /// invalidate the index (CSR covers every edge regardless of flag).
  void Finalize() const { EnsureFinalized(); }
  bool finalized() const { return finalized_; }

  /// Toggles an edge and maintains the per-node active-degree counters.
  /// No-op when the flag already has the requested value.
  void SetEdgeActive(EdgeId id, bool active) {
    GraphEdge& edge = edges_.at(static_cast<size_t>(id));
    if (edge.active == active) return;
    edge.active = active;
    ApplyActiveDelta(edge, active ? 1 : -1);
    ++mutations_;
  }

  /// Number of effective SetEdgeActive calls so far (copies carry it over).
  /// Caches derived from the active flags compare it against the value they
  /// were computed at to detect toggles made behind their back.
  uint64_t mutation_count() const { return mutations_; }

  /// Number of active means edges out of noun phrase `n` (edge.a == n).
  /// O(1); the densifier's removability test (constraint "keep at least
  /// one") reads this instead of materializing ActiveMeans.
  int ActiveMeansCount(NodeId n) const {
    return active_means_count_.at(static_cast<size_t>(n));
  }

  /// Number of active sameAs edges incident to `n` whose other endpoint is
  /// a noun phrase. O(1); drives pronoun-edge removability.
  int ActiveSameAsNpCount(NodeId n) const {
    return active_sameas_np_count_.at(static_cast<size_t>(n));
  }

  /// Ids of active edges of `kind` incident to `node` (either endpoint).
  std::vector<EdgeId> ActiveEdges(NodeId node, EdgeKind kind) const;

  /// All edge ids incident to `node` regardless of active flag, ascending
  /// (self-loops appear twice). The span points into the CSR arena and stays
  /// valid until the next AddNode/AddEdge.
  EdgeSpan IncidentEdges(NodeId node) const {
    EnsureFinalized();
    const size_t n = static_cast<size_t>(node);
    return EdgeSpan(csr_edges_ + csr_offsets_[n],
                    csr_offsets_[n + 1] - csr_offsets_[n]);
  }

  /// Entity node reached from mention `np` via an active means edge id.
  /// (The means edge goes np -> entity.)
  std::vector<std::pair<EdgeId, NodeId>> ActiveMeans(NodeId np) const;

  /// Noun-phrase nodes reachable from `pronoun` via active sameAs edges.
  std::vector<std::pair<EdgeId, NodeId>> ActiveSameAs(NodeId node) const;

  /// All node ids of a given kind, ascending. The span reads a per-kind id
  /// vector maintained incrementally by AddNode, so it is valid regardless
  /// of finalization and is invalidated only by adding a node of this kind.
  NodeSpan NodesOfKind(NodeKind kind) const {
    const auto& ids = kind_nodes_[static_cast<size_t>(kind)];
    return NodeSpan(ids.data(), ids.size());
  }

  /// Pre-existing entity node for an entity id, or kNoNode.
  NodeId EntityNode(EntityId entity) const;

  /// Bytes of CSR/arena storage currently resident (0 until finalized).
  size_t arena_resident_bytes() const { return arena_.resident_bytes(); }

  /// Debug rendering.
  std::string ToString() const;

  /// Test-only: perturbs an active-degree counter so invariant-checker tests
  /// (graph/graph_invariants.h recount vs counter) can observe a detection.
  /// Never
  /// call outside tests.
  void TestOnlyCorruptActiveMeansCount(NodeId n, int delta) {
    active_means_count_.at(static_cast<size_t>(n)) += delta;
  }

  /// Test-only: finalizes and then perturbs one CSR offset so the span
  /// checker in util/invariants.cc can observe a corruption. Never call
  /// outside tests.
  void TestOnlyCorruptIncidentSpan(NodeId n, int delta) {
    EnsureFinalized();
    csr_offsets_[static_cast<size_t>(n)] += static_cast<uint32_t>(delta);
  }

 private:
  void EnsureFinalized() const;

  void ApplyActiveDelta(const GraphEdge& edge, int delta) {
    if (edge.kind == EdgeKind::kMeans) {
      active_means_count_[static_cast<size_t>(edge.a)] += delta;
    } else if (edge.kind == EdgeKind::kSameAs) {
      if (nodes_[static_cast<size_t>(edge.b)].kind == NodeKind::kNounPhrase) {
        active_sameas_np_count_[static_cast<size_t>(edge.a)] += delta;
      }
      if (nodes_[static_cast<size_t>(edge.a)].kind == NodeKind::kNounPhrase) {
        active_sameas_np_count_[static_cast<size_t>(edge.b)] += delta;
      }
    }
  }

  std::vector<GraphNode> nodes_;
  std::vector<GraphEdge> edges_;
  std::vector<NodeId> kind_nodes_[kNodeKindCount];  ///< Ascending, per kind.
  std::unordered_map<EntityId, NodeId> entity_nodes_;
  std::vector<int> active_means_count_;      ///< Indexed by NodeId.
  std::vector<int> active_sameas_np_count_;  ///< Indexed by NodeId.
  uint64_t mutations_ = 0;  ///< Effective SetEdgeActive calls.

  // CSR adjacency, arena-backed; rebuilt by EnsureFinalized after mutations.
  // Mutable so const adjacency queries can finalize lazily.
  mutable Arena arena_;
  mutable uint32_t* csr_offsets_ = nullptr;  ///< node_count() + 1 entries.
  mutable EdgeId* csr_edges_ = nullptr;      ///< One entry per edge endpoint.
  mutable bool finalized_ = false;
};

}  // namespace qkbfly

#endif  // QKBFLY_GRAPH_SEMANTIC_GRAPH_H_
