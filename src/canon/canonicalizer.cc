#include "canon/canonicalizer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace qkbfly {

namespace {

struct Resolution {
  FactArg arg;
  double confidence = 1.0;
};

/// String bytes of an argument; the struct itself is counted by its owner.
size_t ArgTextBytes(const FactArg& arg) {
  return arg.surface.size() + arg.normalized.size();
}

}  // namespace

size_t DocumentFacts::ApproxBytes() const {
  size_t bytes = sizeof(*this);
  for (const EmergingEntity& c : clusters) {
    bytes += sizeof(c) + c.representative.size();
    for (const std::string& m : c.mentions) bytes += sizeof(m) + m.size();
  }
  for (const Fact& f : facts) {
    bytes += sizeof(f) + f.relation_pattern.size() + f.doc_id.size() +
             ArgTextBytes(f.subject);
    for (const FactArg& a : f.args) bytes += sizeof(a) + ArgTextBytes(a);
  }
  return bytes;
}

DocumentFacts Canonicalizer::Extract(const SemanticGraph& graph,
                                     const DensifyResult& densified,
                                     const AnnotatedDocument& doc) const {
  DocumentFacts out;

  // ---- resolve every text node to a fact argument ---------------------------
  std::unordered_map<NodeId, Resolution> resolutions;

  // Accepted entity assignments from the densifier.
  std::unordered_map<NodeId, const DensifyResult::Assignment*> assignment_of;
  for (const auto& a : densified.assignments) {
    if (a.confidence >= options_.emerging_threshold && IsConfidentLink(a)) {
      assignment_of[a.mention] = &a;
    }
  }

  // Noun phrases: walk sameAs connected components so that a whole
  // co-reference cluster resolves to one entity (constraint (3)) or becomes
  // one emerging entity.
  auto nps = graph.NodesOfKind(NodeKind::kNounPhrase);
  std::unordered_set<NodeId> visited;
  for (NodeId start : nps) {
    if (visited.count(start) > 0) continue;
    if (graph.node(start).is_literal) continue;
    std::vector<NodeId> component;
    std::vector<NodeId> stack = {start};
    visited.insert(start);
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      component.push_back(n);
      for (const auto& [e, other] : graph.ActiveSameAs(n)) {
        const GraphNode& o = graph.node(other);
        if (o.kind != NodeKind::kNounPhrase || o.is_literal) continue;
        if (visited.insert(other).second) stack.push_back(other);
      }
    }

    // Best accepted assignment within the cluster.
    const DensifyResult::Assignment* best = nullptr;
    for (NodeId n : component) {
      auto it = assignment_of.find(n);
      if (it == assignment_of.end()) continue;
      if (best == nullptr || it->second->confidence > best->confidence) {
        best = it->second;
      }
    }

    if (best != nullptr) {
      FactArg arg;
      arg.kind = FactArg::Kind::kEntity;
      arg.entity = best->entity;
      arg.surface = graph.node(best->mention).text;
      arg.ner = graph.node(best->mention).ner;
      for (NodeId n : component) {
        resolutions[n] = Resolution{arg, best->confidence};
      }
    } else {
      // Emerging entity: one cluster for the whole component, numbered
      // within this document until Merge registers it.
      EmergingEntity cluster;
      cluster.id = static_cast<EmergingId>(out.clusters.size());
      for (NodeId n : component) {
        const GraphNode& node = graph.node(n);
        cluster.mentions.push_back(node.text);
        if (node.text.size() > cluster.representative.size()) {
          cluster.representative = node.text;
        }
        if (node.ner != NerType::kNone) cluster.ner = node.ner;
      }
      FactArg arg;
      arg.kind = FactArg::Kind::kEmerging;
      arg.emerging = cluster.id;
      arg.surface = cluster.representative;
      arg.ner = cluster.ner;
      out.clusters.push_back(std::move(cluster));
      for (NodeId n : component) {
        resolutions[n] = Resolution{arg, 1.0};
      }
    }
  }

  // Literal noun phrases.
  for (NodeId n : nps) {
    const GraphNode& node = graph.node(n);
    if (!node.is_literal) continue;
    FactArg arg;
    arg.kind = FactArg::Kind::kLiteral;
    arg.surface = node.text;
    arg.normalized = node.normalized_literal;
    arg.ner = node.ner;
    resolutions[n] = Resolution{arg, 1.0};
  }

  // Pronouns resolve through their antecedent, with a small confidence
  // discount for the extra inference step.
  for (NodeId p : graph.NodesOfKind(NodeKind::kPronoun)) {
    NodeId antecedent = densified.AntecedentOf(p);
    if (antecedent == kNoNode) continue;
    auto res = resolutions.find(antecedent);
    if (res != resolutions.end()) {
      Resolution r = res->second;
      r.confidence *= 0.95;
      resolutions[p] = std::move(r);
    }
  }

  // ---- assemble facts from relation edges grouped by clause -----------------
  // Relation edges from one clause form one n-ary fact (the depends-based
  // fact boundary of Section 5); clause-less edges (possessive heuristic)
  // each form a binary fact.
  std::map<NodeId, std::vector<EdgeId>> by_clause;
  std::vector<EdgeId> standalone;
  for (size_t e = 0; e < graph.edge_count(); ++e) {
    const GraphEdge& edge = graph.edge(static_cast<EdgeId>(e));
    if (edge.kind != EdgeKind::kRelation || !edge.active) continue;
    if (edge.clause == kNoNode) {
      standalone.push_back(static_cast<EdgeId>(e));
    } else {
      by_clause[edge.clause].push_back(static_cast<EdgeId>(e));
    }
  }

  auto resolve = [&resolutions](NodeId n) -> std::optional<Resolution> {
    auto it = resolutions.find(n);
    if (it == resolutions.end()) return std::nullopt;
    return it->second;
  };

  auto emit = [&](Fact fact, double confidence) {
    fact.confidence = confidence;
    if (confidence < options_.confidence_threshold) return;
    out.facts.push_back(std::move(fact));
  };

  for (const auto& [clause_node, edges] : by_clause) {
    const GraphNode& clause = graph.node(clause_node);
    auto subject_res = resolve(graph.edge(edges.front()).a);
    if (!subject_res) continue;

    if (options_.triples_only) {
      // One SPO triple per relation edge, with the edge's own pattern.
      for (EdgeId e : edges) {
        const GraphEdge& edge = graph.edge(e);
        auto obj = resolve(edge.b);
        if (!obj) continue;
        Fact fact;
        fact.relation_pattern = edge.label;
        fact.negated = clause.negated_clause;
        fact.subject = subject_res->arg;
        fact.args.push_back(obj->arg);
        fact.doc_id = doc.id;
        fact.sentence = clause.sentence;
        emit(std::move(fact),
             std::min(subject_res->confidence, obj->confidence));
      }
      continue;
    }

    Fact fact;
    fact.relation_pattern = clause.relation_pattern;
    fact.negated = clause.negated_clause;
    fact.subject = subject_res->arg;
    fact.doc_id = doc.id;
    fact.sentence = clause.sentence;
    double confidence = subject_res->confidence;
    for (EdgeId e : edges) {
      auto obj = resolve(graph.edge(e).b);
      if (!obj) continue;
      fact.args.push_back(obj->arg);
      confidence = std::min(confidence, obj->confidence);
    }
    if (fact.args.empty()) continue;
    emit(std::move(fact), confidence);
  }

  for (EdgeId e : standalone) {
    const GraphEdge& edge = graph.edge(e);
    auto subject_res = resolve(edge.a);
    auto obj = resolve(edge.b);
    if (!subject_res || !obj) continue;
    Fact fact;
    fact.relation_pattern = edge.label;
    fact.subject = subject_res->arg;
    fact.args.push_back(obj->arg);
    fact.doc_id = doc.id;
    fact.sentence = graph.node(edge.a).sentence;
    emit(std::move(fact), std::min(subject_res->confidence, obj->confidence));
  }
  return out;
}

void Canonicalizer::Merge(OnTheFlyKb* kb, DocumentFacts facts) {
  // Registration first and in order, exactly as the clusters were found:
  // the KB's emerging ids (and so its bytes) depend on this order.
  std::vector<EmergingId> ids;
  ids.reserve(facts.clusters.size());
  for (EmergingEntity& c : facts.clusters) {
    ids.push_back(kb->AddEmergingEntity(std::move(c.representative),
                                        std::move(c.mentions), c.ner));
  }
  auto remap = [&ids](FactArg& arg) {
    if (arg.kind == FactArg::Kind::kEmerging) arg.emerging = ids[arg.emerging];
  };
  for (Fact& fact : facts.facts) {
    remap(fact.subject);
    for (FactArg& arg : fact.args) remap(arg);
    fact.relation = kb->RelationFor(fact.relation_pattern);
    kb->AddFact(std::move(fact));
  }
}

}  // namespace qkbfly
