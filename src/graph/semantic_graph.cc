#include "graph/semantic_graph.h"

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

void SemanticGraph::Finalize() {
  if (finalized_) return;
  // Construction is done until the next mutation: release the growth slack
  // of the node and edge arrays, so a finished graph holds exact-size storage.
  nodes_.shrink_to_fit();
  edges_.shrink_to_fit();
  const size_t n = nodes_.size();
  csr_offsets_.assign(n + 1, 0u);
  for (const GraphEdge& e : edges_) {
    ++csr_offsets_[static_cast<size_t>(e.a) + 1];
    ++csr_offsets_[static_cast<size_t>(e.b) + 1];
  }
  for (size_t i = 1; i <= n; ++i) csr_offsets_[i] += csr_offsets_[i - 1];
  csr_edges_.resize(csr_offsets_[n]);
  std::vector<uint32_t> cursor(csr_offsets_.begin(), csr_offsets_.end() - 1);
  // Edges ascending, each appended to both endpoint lists (twice for a
  // self-loop): every per-node span comes out in ascending EdgeId order.
  for (size_t e = 0; e < edges_.size(); ++e) {
    const GraphEdge& edge = edges_[e];
    csr_edges_[cursor[static_cast<size_t>(edge.a)]++] = static_cast<EdgeId>(e);
    csr_edges_[cursor[static_cast<size_t>(edge.b)]++] = static_cast<EdgeId>(e);
  }
  finalized_ = true;
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
