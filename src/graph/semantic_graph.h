// The semantic-graph representation of Section 3: clause, noun-phrase,
// pronoun and entity nodes connected by depends, relation, sameAs and means
// edges. One graph covers one document (the per-sentence graphs of the paper
// linked by cross-sentence co-reference edges).
//
// Storage is data-oriented: nodes and edges live in contiguous arrays, and
// adjacency is a CSR index (per-node offset table plus one flat incident-edge
// array, both exact-size vectors) built by an explicit Finalize() after
// construction. Construction stays append-only; a mutation clears the
// finalized flag, and adjacency queries require a finalized graph, so no
// allocation hides behind a const accessor. GraphBuilder finalizes before
// handing the graph to the densifier; hand-assembled graphs call Finalize()
// themselves.
#ifndef QKBFLY_GRAPH_SEMANTIC_GRAPH_H_
#define QKBFLY_GRAPH_SEMANTIC_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "clausie/clause.h"
#include "kb/entity_repository.h"
#include "nlp/annotation.h"
#include "nlp/lexicon.h"
#include "text/token.h"
#include "util/logging.h"

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
  std::string text;  ///< Mention surface (without leading determiner for NPs).

  // Noun-phrase nodes:
  NerType ner = NerType::kNone;
  bool is_literal = false;          ///< TIME/NUMBER/plain-string argument.
  std::string normalized_literal;   ///< ISO date etc. when is_literal.

  // Pronoun nodes:
  Gender gender = Gender::kUnknown;

  // Entity nodes:
  EntityId entity = kInvalidEntity;

  // Clause nodes:
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
  using EdgeSpan = std::span<const EdgeId>;
  using NodeSpan = std::span<const NodeId>;

  NodeId AddNode(GraphNode node);
  EdgeId AddEdge(GraphEdge edge);

  size_t node_count() const { return nodes_.size(); }
  size_t edge_count() const { return edges_.size(); }

  const GraphNode& node(NodeId id) const { return nodes_.at(static_cast<size_t>(id)); }
  GraphNode& mutable_node(NodeId id) { return nodes_.at(static_cast<size_t>(id)); }
  const GraphEdge& edge(EdgeId id) const { return edges_.at(static_cast<size_t>(id)); }

  /// Builds the CSR adjacency index over the current node/edge set and
  /// trims the node and edge arrays to their size. Idempotent; required
  /// before any adjacency query, and again after any AddNode/AddEdge.
  /// Toggling active flags does NOT invalidate the index (CSR covers every
  /// edge regardless of flag).
  void Finalize();
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

  /// All edge ids incident to `node` regardless of active flag, ascending
  /// (self-loops appear twice). Requires a finalized graph. The span points
  /// into the CSR index and stays valid until the next Finalize() that
  /// follows a mutation, including across a move of the graph.
  EdgeSpan IncidentEdges(NodeId node) const {
    QKB_CHECK(finalized_) << "IncidentEdges on an unfinalized graph";
    const size_t n = static_cast<size_t>(node);
    return EdgeSpan(csr_edges_.data() + csr_offsets_[n],
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
    Finalize();
    csr_offsets_[static_cast<size_t>(n)] += static_cast<uint32_t>(delta);
  }

 private:
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

  // CSR adjacency; rebuilt by Finalize after mutations.
  std::vector<uint32_t> csr_offsets_;  ///< node_count() + 1 entries.
  std::vector<EdgeId> csr_edges_;      ///< One entry per edge endpoint.
  bool finalized_ = false;
};

}  // namespace qkbfly

#endif  // QKBFLY_GRAPH_SEMANTIC_GRAPH_H_
