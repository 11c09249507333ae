#include "densify/pipeline_densifier.h"

#include <algorithm>

#include "util/logging.h"

namespace qkbfly {

DensifyResult PipelineDensifier::Densify(SemanticGraph* graph,
                                         const AnnotatedDocument& doc) const {
  // Stage NED reads only the means lane; no relation lanes are built.
  DensifyWorkspace ws;
  BuildMeansLane(*graph, doc, *stats_, *repository_, params_, &ws);
  DensifyResult result;

  // Stage NED: per-mention argmax of the means-edge weight alone.
  for (NodeId np : graph->NodesOfKind(NodeKind::kNounPhrase)) {
    auto means = graph->ActiveMeans(np);
    if (means.empty()) continue;
    EdgeId best_edge = means[0].first;
    EntityId best_entity = graph->node(means[0].second).entity;
    double best_w = -1.0;
    double total = 0.0;
    for (const auto& [e, entity_node] : means) {
      double w = ws.mw_lane[static_cast<size_t>(e)];
      total += std::max(w, 0.0);
      if (w > best_w) {
        best_w = w;
        best_edge = e;
        best_entity = graph->node(entity_node).entity;
      }
    }
    for (const auto& [e, entity_node] : means) {
      if (e != best_edge) {
        graph->SetEdgeActive(e, false);
        ++result.edges_removed;
      }
    }
    DensifyResult::Assignment a;
    a.mention = np;
    a.entity = best_entity;
    a.weight = std::max(best_w, 0.0);
    {
      const auto& exact =
          repository_->CandidatesForAlias(graph->node(np).text);
      a.exact_alias =
          std::find(exact.begin(), exact.end(), best_entity) != exact.end();
    }
    if (best_w > 1e-12) {
      a.confidence = total > 0.0 ? std::max(best_w, 0.0) / total : 1.0;
    } else {
      a.confidence =
          a.exact_alias ? 1.0 / static_cast<double>(means.size()) : 0.0;
    }
    result.assignments.push_back(a);
  }

  // Stage CR: nearest preceding noun phrase with compatible gender.
  for (NodeId p : graph->NodesOfKind(NodeKind::kPronoun)) {
    const GraphNode& pro = graph->node(p);
    auto links = graph->ActiveSameAs(p);
    EdgeId best_edge = -1;
    NodeId best_np = kNoNode;
    int best_distance = 1 << 20;
    for (const auto& [e, np] : links) {
      const GraphNode& cand = graph->node(np);
      if (cand.kind != NodeKind::kNounPhrase) continue;
      // Gender check against the chosen entity (if any).
      bool conflict = false;
      if (pro.gender != Gender::kUnknown) {
        for (const auto& [me, entity_node] : graph->ActiveMeans(np)) {
          Gender g = repository_->Get(graph->node(entity_node).entity).gender;
          if (g != Gender::kUnknown && g != pro.gender) conflict = true;
        }
      }
      if (conflict) continue;
      int distance = (pro.sentence - cand.sentence) * 1000 +
                     (cand.sentence == pro.sentence
                          ? pro.span.begin - cand.span.begin
                          : 1000 - cand.span.begin);
      if (distance < best_distance) {
        best_distance = distance;
        best_edge = e;
        best_np = np;
      }
    }
    for (const auto& [e, np] : links) {
      if (e != best_edge) {
        graph->SetEdgeActive(e, false);
        ++result.edges_removed;
      }
    }
    // NodesOfKind iterates ascending, keeping the pair list sorted by
    // pronoun as AntecedentOf's binary search requires.
    if (best_np != kNoNode) result.pronoun_antecedents.emplace_back(p, best_np);
  }

  return result;
}

}  // namespace qkbfly
