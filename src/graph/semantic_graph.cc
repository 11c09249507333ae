#include "graph/semantic_graph.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace qkbfly {

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kClause: return "clause";
    case NodeKind::kNounPhrase: return "noun-phrase";
    case NodeKind::kPronoun: return "pronoun";
    case NodeKind::kEntity: return "entity";
  }
  return "?";
}

const char* EdgeKindName(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kDepends: return "depends";
    case EdgeKind::kRelation: return "relation";
    case EdgeKind::kSameAs: return "sameAs";
    case EdgeKind::kMeans: return "means";
  }
  return "?";
}

SemanticGraph::SemanticGraph(const SemanticGraph& other)
    : nodes_(other.nodes_),
      edges_(other.edges_),
      entity_nodes_(other.entity_nodes_),
      active_means_count_(other.active_means_count_),
      active_sameas_np_count_(other.active_sameas_np_count_),
      mutations_(other.mutations_) {
  for (size_t k = 0; k < kNodeKindCount; ++k) kind_nodes_[k] = other.kind_nodes_[k];
}

SemanticGraph& SemanticGraph::operator=(const SemanticGraph& other) {
  if (this == &other) return *this;
  nodes_ = other.nodes_;
  edges_ = other.edges_;
  for (size_t k = 0; k < kNodeKindCount; ++k) kind_nodes_[k] = other.kind_nodes_[k];
  entity_nodes_ = other.entity_nodes_;
  active_means_count_ = other.active_means_count_;
  active_sameas_np_count_ = other.active_sameas_np_count_;
  mutations_ = other.mutations_;
  // The copy rebuilds its own CSR index on first use; the arena keeps its
  // resident blocks for that rebuild.
  csr_offsets_ = nullptr;
  csr_edges_ = nullptr;
  finalized_ = false;
  return *this;
}

SemanticGraph::SemanticGraph(SemanticGraph&& other) noexcept
    : nodes_(std::move(other.nodes_)),
      edges_(std::move(other.edges_)),
      entity_nodes_(std::move(other.entity_nodes_)),
      active_means_count_(std::move(other.active_means_count_)),
      active_sameas_np_count_(std::move(other.active_sameas_np_count_)),
      mutations_(other.mutations_),
      arena_(std::move(other.arena_)),
      csr_offsets_(other.csr_offsets_),
      csr_edges_(other.csr_edges_),
      finalized_(other.finalized_) {
  for (size_t k = 0; k < kNodeKindCount; ++k) {
    kind_nodes_[k] = std::move(other.kind_nodes_[k]);
  }
  other.csr_offsets_ = nullptr;
  other.csr_edges_ = nullptr;
  other.finalized_ = false;
}

SemanticGraph& SemanticGraph::operator=(SemanticGraph&& other) noexcept {
  if (this == &other) return *this;
  nodes_ = std::move(other.nodes_);
  edges_ = std::move(other.edges_);
  for (size_t k = 0; k < kNodeKindCount; ++k) {
    kind_nodes_[k] = std::move(other.kind_nodes_[k]);
  }
  entity_nodes_ = std::move(other.entity_nodes_);
  active_means_count_ = std::move(other.active_means_count_);
  active_sameas_np_count_ = std::move(other.active_sameas_np_count_);
  mutations_ = other.mutations_;
  arena_ = std::move(other.arena_);
  csr_offsets_ = other.csr_offsets_;
  csr_edges_ = other.csr_edges_;
  finalized_ = other.finalized_;
  other.csr_offsets_ = nullptr;
  other.csr_edges_ = nullptr;
  other.finalized_ = false;
  return *this;
}

NodeId SemanticGraph::AddNode(GraphNode node) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  if (node.kind == NodeKind::kEntity) {
    QKB_CHECK_NE(node.entity, kInvalidEntity);
    auto it = entity_nodes_.find(node.entity);
    if (it != entity_nodes_.end()) return it->second;
    entity_nodes_.emplace(node.entity, id);
  }
  kind_nodes_[static_cast<size_t>(node.kind)].push_back(id);
  nodes_.push_back(std::move(node));
  active_means_count_.push_back(0);
  active_sameas_np_count_.push_back(0);
  finalized_ = false;
  return id;
}

EdgeId SemanticGraph::AddEdge(GraphEdge edge) {
  QKB_CHECK_GE(edge.a, 0);
  QKB_CHECK_GE(edge.b, 0);
  QKB_CHECK_LT(static_cast<size_t>(edge.a), nodes_.size());
  QKB_CHECK_LT(static_cast<size_t>(edge.b), nodes_.size());
  EdgeId id = static_cast<EdgeId>(edges_.size());
  if (edge.active) ApplyActiveDelta(edge, 1);
  edges_.push_back(std::move(edge));
  finalized_ = false;
  return id;
}

void SemanticGraph::EnsureFinalized() const {
  if (finalized_) return;
  arena_.Reset();
  const size_t n = nodes_.size();
  csr_offsets_ = arena_.AllocateArray<uint32_t>(n + 1);
  std::fill(csr_offsets_, csr_offsets_ + n + 1, 0u);
  for (const GraphEdge& e : edges_) {
    ++csr_offsets_[static_cast<size_t>(e.a) + 1];
    ++csr_offsets_[static_cast<size_t>(e.b) + 1];
  }
  for (size_t i = 1; i <= n; ++i) csr_offsets_[i] += csr_offsets_[i - 1];
  const size_t total = csr_offsets_[n];
  csr_edges_ = arena_.AllocateArray<EdgeId>(total);
  uint32_t* cursor = arena_.AllocateArray<uint32_t>(n);
  std::copy(csr_offsets_, csr_offsets_ + n, cursor);
  // Edges ascending, each appended to both endpoint lists (twice for a
  // self-loop): every per-node span comes out in ascending EdgeId order.
  for (size_t e = 0; e < edges_.size(); ++e) {
    const GraphEdge& edge = edges_[e];
    csr_edges_[cursor[static_cast<size_t>(edge.a)]++] = static_cast<EdgeId>(e);
    csr_edges_[cursor[static_cast<size_t>(edge.b)]++] = static_cast<EdgeId>(e);
  }
  finalized_ = true;
}

std::vector<EdgeId> SemanticGraph::ActiveEdges(NodeId node, EdgeKind kind) const {
  std::vector<EdgeId> out;
  for (EdgeId e : IncidentEdges(node)) {
    const GraphEdge& edge = edges_[static_cast<size_t>(e)];
    if (edge.active && edge.kind == kind) out.push_back(e);
  }
  return out;
}

std::vector<std::pair<EdgeId, NodeId>> SemanticGraph::ActiveMeans(NodeId np) const {
  std::vector<std::pair<EdgeId, NodeId>> out;
  for (EdgeId e : IncidentEdges(np)) {
    const GraphEdge& edge = edges_[static_cast<size_t>(e)];
    if (!edge.active || edge.kind != EdgeKind::kMeans) continue;
    if (edge.a == np) out.emplace_back(e, edge.b);
  }
  return out;
}

std::vector<std::pair<EdgeId, NodeId>> SemanticGraph::ActiveSameAs(NodeId node) const {
  std::vector<std::pair<EdgeId, NodeId>> out;
  for (EdgeId e : IncidentEdges(node)) {
    const GraphEdge& edge = edges_[static_cast<size_t>(e)];
    if (!edge.active || edge.kind != EdgeKind::kSameAs) continue;
    out.emplace_back(e, edge.a == node ? edge.b : edge.a);
  }
  return out;
}

NodeId SemanticGraph::EntityNode(EntityId entity) const {
  auto it = entity_nodes_.find(entity);
  return it == entity_nodes_.end() ? kNoNode : it->second;
}

std::string SemanticGraph::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const GraphNode& n = nodes_[i];
    os << "node " << i << " [" << NodeKindName(n.kind) << "] ";
    if (n.kind == NodeKind::kClause) {
      os << ClauseTypeName(n.clause_type) << " '" << n.relation_pattern << "'";
    } else if (n.kind == NodeKind::kEntity) {
      os << "entity#" << n.entity;
    } else {
      os << "'" << n.text << "'";
      if (n.sentence >= 0) os << " (s" << n.sentence << ")";
    }
    os << "\n";
  }
  for (size_t e = 0; e < edges_.size(); ++e) {
    const GraphEdge& edge = edges_[e];
    os << "edge " << e << " " << edge.a << " -" << EdgeKindName(edge.kind);
    if (!edge.label.empty()) os << "[" << edge.label << "]";
    os << "-> " << edge.b << (edge.active ? "" : " (pruned)") << "\n";
  }
  return os.str();
}

}  // namespace qkbfly
