#include "densify/ilp_densifier.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_set>

#include "ilp/ilp.h"
#include "util/logging.h"

namespace qkbfly {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One connected component of mention nodes (over relation + sameAs edges).
struct Component {
  std::vector<NodeId> mentions;  // noun phrases and pronouns
};

// The paper translates the whole document graph into one program (the
// blow-up in variable count is exactly why QKBfly-ilp is slow in Table 6),
// so all mentions form a single "component".
std::vector<Component> FindComponents(const SemanticGraph& graph) {
  Component all;
  for (NodeId n : graph.NodesOfKind(NodeKind::kNounPhrase)) {
    const GraphNode& node = graph.node(n);
    if (!node.is_literal) all.mentions.push_back(n);
  }
  for (NodeId n : graph.NodesOfKind(NodeKind::kPronoun)) {
    all.mentions.push_back(n);
  }
  if (all.mentions.empty()) return {};
  return {std::move(all)};
}

}  // namespace

DensifyResult IlpDensifier::Densify(SemanticGraph* graph,
                                    const AnnotatedDocument& doc) const {
  DensifyEvaluator eval(graph, doc, stats_, repository_, params_);
  DensifyResult result;
  eval.SnapshotOriginalMeans();
  eval.Preprocess();

  for (const Component& comp : FindComponents(*graph)) {
    IlpModel model;
    // cnd variables per mention and candidate.
    std::map<std::pair<NodeId, EntityId>, int> cnd;
    std::map<std::pair<NodeId, EntityId>, EdgeId> means_edge_of;
    std::unordered_set<NodeId> in_comp(comp.mentions.begin(), comp.mentions.end());

    for (NodeId m : comp.mentions) {
      const GraphNode& node = graph->node(m);
      std::vector<EntityId> candidates;
      if (node.kind == NodeKind::kNounPhrase) {
        for (const auto& [e, entity_node] : graph->ActiveMeans(m)) {
          EntityId entity = graph->node(entity_node).entity;
          candidates.push_back(entity);
          means_edge_of[{m, entity}] = e;
        }
      } else {
        candidates = eval.EntOfPronoun(m);
      }
      if (candidates.empty()) continue;
      std::vector<std::pair<int, double>> group;
      for (EntityId e : candidates) {
        double w = node.kind == NodeKind::kNounPhrase
                       ? eval.MeansEdgeWeight(means_edge_of.at({m, e}))
                       : 0.0;
        int var = model.AddVariable(w);
        cnd[{m, e}] = var;
        group.emplace_back(var, 1.0);
      }
      // Exactly one candidate per noun phrase (Appendix A, constraint (1)).
      // Pronouns may stay unresolved (at most one): their candidates depend
      // on the noun phrases' choices, which the sameAs equalities can
      // invalidate entirely.
      double lower = node.kind == NodeKind::kNounPhrase ? 1.0 : 0.0;
      model.AddConstraint(std::move(group), lower, 1.0);
    }

    // sameAs equality between noun phrases (Appendix A, constraint (2)):
    // shared candidates must be chosen together. Pairs whose candidate sets
    // differ (empty cluster intersection) are left uncoupled — linking them
    // rigidly can make the program infeasible, and the greedy algorithm
    // relaxes constraint (3) the same way.
    for (NodeId m : comp.mentions) {
      const GraphNode& node = graph->node(m);
      if (node.kind != NodeKind::kNounPhrase) continue;
      auto my_cands = eval.EntOfNp(m);
      std::sort(my_cands.begin(), my_cands.end());
      for (const auto& [e, other] : graph->ActiveSameAs(m)) {
        if (other <= m) continue;  // each pair once
        if (graph->node(other).kind != NodeKind::kNounPhrase) continue;
        auto other_cands = eval.EntOfNp(other);
        std::sort(other_cands.begin(), other_cands.end());
        if (my_cands != other_cands) continue;
        for (const auto& [key, var] : cnd) {
          if (key.first != m) continue;
          auto jt = cnd.find({other, key.second});
          if (jt != cnd.end()) {
            model.AddConstraint({{var, 1.0}, {jt->second, -1.0}}, 0.0, 0.0);
          }
        }
      }
    }

    // Pronoun consistency: a pronoun may only choose an entity that one of
    // its linked noun phrases chooses.
    for (NodeId m : comp.mentions) {
      if (graph->node(m).kind != NodeKind::kPronoun) continue;
      for (const auto& [key, var] : cnd) {
        if (key.first != m) continue;
        std::vector<std::pair<int, double>> terms = {{var, 1.0}};
        for (const auto& [e, np] : graph->ActiveSameAs(m)) {
          if (graph->node(np).kind != NodeKind::kNounPhrase) continue;
          auto jt = cnd.find({np, key.second});
          if (jt != cnd.end()) terms.emplace_back(jt->second, -1.0);
        }
        model.AddConstraint(std::move(terms), -kInf, 0.0);
      }
    }

    // joint-rel variables for relation edges inside the component.
    for (EdgeId re : eval.relation_edges()) {
      const GraphEdge& edge = graph->edge(re);
      if (!edge.active) continue;
      bool a_in = in_comp.count(edge.a) > 0;
      bool b_in = in_comp.count(edge.b) > 0;
      if (!a_in && !b_in) continue;

      auto cands_of = [&](NodeId n) {
        std::vector<EntityId> out;
        for (const auto& [key, var] : cnd) {
          if (key.first == n) out.push_back(key.second);
        }
        return out;
      };
      auto ca = cands_of(edge.a);
      auto cb = cands_of(edge.b);

      if (!ca.empty() && !cb.empty()) {
        for (EntityId ea : ca) {
          for (EntityId eb : cb) {
            double w = eval.PairWeight(re, ea, eb);
            if (w <= 0.0) continue;
            int jr = model.AddVariable(w);
            model.AddConstraint({{jr, 1.0}, {cnd[{edge.a, ea}], -1.0}}, -kInf, 0.0);
            model.AddConstraint({{jr, 1.0}, {cnd[{edge.b, eb}], -1.0}}, -kInf, 0.0);
          }
        }
      } else if (!ca.empty()) {
        // The other endpoint is a literal or out-of-KB: its (fixed) types
        // still reward candidate choices on this side.
        for (EntityId ea : ca) {
          double w = eval.PairWeight(re, ea, kInvalidEntity);
          if (w > 0.0) {
            int jr = model.AddVariable(w);
            model.AddConstraint({{jr, 1.0}, {cnd[{edge.a, ea}], -1.0}}, -kInf, 0.0);
          }
        }
      } else if (!cb.empty()) {
        for (EntityId eb : cb) {
          double w = eval.PairWeight(re, kInvalidEntity, eb);
          if (w > 0.0) {
            int jr = model.AddVariable(w);
            model.AddConstraint({{jr, 1.0}, {cnd[{edge.b, eb}], -1.0}}, -kInf, 0.0);
          }
        }
      }
    }

    if (model.variable_count() == 0) continue;
    // Branch mention by mention (cnd variables grouped), joint-rel variables
    // afterwards, so infeasible candidate combinations fail fast.
    {
      std::vector<int> order;
      std::vector<bool> placed(model.variable_count(), false);
      for (const auto& [key, var] : cnd) {
        order.push_back(var);
        placed[static_cast<size_t>(var)] = true;
      }
      for (size_t v = 0; v < model.variable_count(); ++v) {
        if (!placed[v]) order.push_back(static_cast<int>(v));
      }
      model.SetBranchOrder(std::move(order));
    }
    BranchAndBoundSolver solver;
    auto solution = solver.Maximize(model);
    if (!solution.ok()) {
      QKB_LOG(Warning) << "ILP infeasible on component of " << comp.mentions.size()
                       << " mentions: " << solution.status();
      continue;
    }

    // Decode: prune unchosen means edges; resolve pronouns to the nearest
    // linked noun phrase that carries the pronoun's chosen entity.
    for (NodeId m : comp.mentions) {
      const GraphNode& node = graph->node(m);
      EntityId chosen = kInvalidEntity;
      for (const auto& [key, var] : cnd) {
        if (key.first == m && solution->values[static_cast<size_t>(var)] == 1) {
          chosen = key.second;
          break;
        }
      }
      if (node.kind == NodeKind::kNounPhrase) {
        for (const auto& [e, entity_node] : graph->ActiveMeans(m)) {
          if (graph->node(entity_node).entity != chosen) {
            graph->SetEdgeActive(e, false);
            ++result.edges_removed;
          }
        }
      } else {
        // Pronoun: keep exactly one sameAs edge.
        EdgeId keep = -1;
        int best_distance = 1 << 30;
        for (const auto& [e, np] : graph->ActiveSameAs(m)) {
          const GraphNode& cand = graph->node(np);
          if (cand.kind != NodeKind::kNounPhrase) continue;
          bool carries = chosen == kInvalidEntity;
          for (const auto& [me, entity_node] : graph->ActiveMeans(np)) {
            if (graph->node(entity_node).entity == chosen) carries = true;
          }
          if (!carries) continue;
          int distance = (node.sentence - cand.sentence) * 1000 +
                         std::abs(node.span.begin - cand.span.begin);
          if (distance < best_distance) {
            best_distance = distance;
            keep = e;
          }
        }
        for (const auto& [e, np] : graph->ActiveSameAs(m)) {
          if (graph->node(np).kind != NodeKind::kNounPhrase) continue;
          if (e != keep) {
            graph->SetEdgeActive(e, false);
            ++result.edges_removed;
          }
        }
      }
    }
  }

  result.objective = eval.Objective();
  eval.ComputeConfidencesInto(&result.assignments);
  result.pronoun_antecedents = ExtractPronounAntecedents(*graph);
  return result;
}

}  // namespace qkbfly
