// Subgraph evaluation machinery shared by the greedy densifier (Algorithm 1),
// the ILP densifier (Appendix A) and confidence scoring: candidate-set
// queries (the ent()/np() notation of Section 4), the objective W(S), and
// edge contributions c(x, y, S).
//
// The evaluator runs off flat per-edge weight lanes in a DensifyWorkspace:
// construction builds candidate universes and dense fixed-point
// coherence/type-signature matrices once, and keeps every mention's active
// candidate list committed, with a live support count per pronoun
// candidate. A Contribution call sums integer lane entries over the rows and
// columns a removal drops, with no hashing and no re-collection of
// unchanged sides. The lanes are the only implementation of the Section 4
// weights: the greedy loop, the ILP translation and the pipeline baseline
// all read them.
#ifndef QKBFLY_DENSIFY_EVALUATOR_H_
#define QKBFLY_DENSIFY_EVALUATOR_H_

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "corpus/background_stats.h"
#include "densify/workspace.h"
#include "graph/semantic_graph.h"
#include "kb/entity_repository.h"

namespace qkbfly {

/// The alpha_1..alpha_4 hyper-parameters (Section 4), learned by L-BFGS in
/// ParameterTuner; the defaults are sensible starting values.
struct DensifyParams {
  double alpha1 = 0.45;  ///< mention-entity prior
  double alpha2 = 0.25;  ///< mention-context / entity-context similarity
  double alpha3 = 0.15;  ///< entity-entity coherence on relation edges
  double alpha4 = 0.35;  ///< type-signature score on relation edges
};

/// The result of densification over one document graph (produced by the
/// greedy, pipeline and ILP variants alike).
struct DensifyResult {
  /// Final mention -> entity assignments with normalized confidence scores.
  struct Assignment {
    NodeId mention = kNoNode;
    EntityId entity = kInvalidEntity;
    double confidence = 0.0;  ///< Normalized over the original alternatives.
    double weight = 0.0;      ///< Absolute means-edge weight of the choice.
    bool exact_alias = false; ///< Mention is an exact alias of the entity.
  };
  std::vector<Assignment> assignments;

  /// Resolved pronoun -> antecedent noun-phrase links, ascending by pronoun.
  std::vector<std::pair<NodeId, NodeId>> pronoun_antecedents;

  double objective = 0.0;  ///< W(S*) of the final subgraph.
  int edges_removed = 0;
  /// Contributions the greedy loop evaluated: one per initially removable
  /// edge plus one per re-evaluation after a removal. Zero for the
  /// pipeline and ILP variants.
  int contributions_evaluated = 0;

  /// Edge ids in the order the greedy loop deactivated them. Deterministic:
  /// ties on contribution break toward the smaller EdgeId, so the sequence
  /// is identical run after run.
  std::vector<EdgeId> removal_order;

  /// Antecedent of a pronoun node, or kNoNode.
  NodeId AntecedentOf(NodeId pronoun) const {
    auto it = std::lower_bound(
        pronoun_antecedents.begin(), pronoun_antecedents.end(), pronoun,
        [](const std::pair<NodeId, NodeId>& e, NodeId p) { return e.first < p; });
    if (it == pronoun_antecedents.end() || it->first != pronoun) return kNoNode;
    return it->second;
  }

  /// Empties the result but keeps vector capacity, for reuse across
  /// documents.
  void Clear() {
    assignments.clear();
    pronoun_antecedents.clear();
    removal_order.clear();
    objective = 0.0;
    edges_removed = 0;
    contributions_evaluated = 0;
  }
};

/// Evaluates the current subgraph state (the graph's active-edge flags).
/// Mutating calls toggle edges through the graph pointer.
///
/// Pass a retained DensifyWorkspace to make construction and evaluation
/// allocation-free once the workspace is warm; without one the evaluator
/// owns a private workspace (the ILP / test path).
class DensifyEvaluator {
 public:
  DensifyEvaluator(SemanticGraph* graph, const AnnotatedDocument& doc,
                   const BackgroundStats* stats,
                   const EntityRepository* repository,
                   const DensifyParams& params,
                   DensifyWorkspace* workspace = nullptr);

  SemanticGraph& graph() { return *graph_; }
  DensifyWorkspace& workspace() { return *ws_; }

  /// w(n_i, e_ij) = a1 * prior + a2 * sim of one means edge, dampened 0.3x
  /// for loose (partial-name) candidates.
  double MeansEdgeWeight(EdgeId means) const {
    return ws_->mw_lane[static_cast<size_t>(means)];
  }

  /// a3 * coh + a4 * ts of one relation edge with each endpoint fixed to a
  /// single candidate. kInvalidEntity on a side selects that endpoint's
  /// literal type, or nothing when it has none. A non-invalid entity must
  /// be in the endpoint's candidate universe.
  double PairWeight(EdgeId relation, EntityId a, EntityId b) const;

  /// ent(n_i, S): candidate entities of a noun-phrase node.
  std::vector<EntityId> EntOfNp(NodeId np) const;

  /// ent(p_i, S): gender-filtered union over the pronoun's sameAs links.
  std::vector<EntityId> EntOfPronoun(NodeId p) const;

  /// Constraint (4): entity gender known and conflicting with the pronoun.
  bool GenderConflict(const GraphNode& pronoun, EntityId e) const;

  /// Current weight of one relation edge under the active candidate sets.
  double RelationEdgeWeight(EdgeId e) const;

  /// W(S): sum of active means weights and relation-edge weights.
  double Objective() const;

  /// c(x, y, S) = mw[e] + (a3 * dcoh + a4 * dts) / 2^32, where the integer
  /// deltas sum, over the relation lanes incident to each mention the
  /// removal changes (a lane incident to two such mentions counts twice),
  /// the entries in the dropped rows and columns. With R_a = A \ A' and
  /// R_b = B \ B' the removed slots, a lane moves by W(R_a, B) +
  /// W(A, R_b) - W(R_a, R_b): the removed sets come from the edge's slot and
  /// the reverse support index against the live counts, so no kept list is
  /// built. Exact, so independent of summation order.
  double Contribution(EdgeId e) const;

  /// Removes `e` from the subgraph and refreshes the committed lists of the
  /// mentions it changes. Toggling edges through the graph directly stays
  /// correct but rebuilds every list on the next evaluation. Returns those
  /// mentions (ChangedMentionsInto of `e` before the removal), valid until
  /// the next evaluator call.
  const std::vector<NodeId>& Deactivate(EdgeId e);

  /// Mentions whose active candidate set changes when the active edge `e`
  /// is removed: a means edge's noun phrase plus the pronouns linked to it
  /// by active sameAs edges (ascending by pronoun), or a sameAs edge's
  /// pronoun. Call before removing `e`.
  void ChangedMentionsInto(EdgeId e, std::vector<NodeId>* out) const;

  /// Preprocessing: candidate-set intersection over sameAs clusters
  /// (constraint (3)) and the pronoun gender constraint (constraint (4)).
  void Preprocess();

  /// Edges the greedy algorithm may remove without violating the
  /// keep-at-least-one rule: means edges of multi-candidate noun phrases and
  /// sameAs edges of multi-antecedent pronouns.
  std::vector<EdgeId> RemovableEdges() const;

  /// RemovableEdges into a retained buffer (same contents and order).
  void RemovableEdgesInto(std::vector<EdgeId>* out) const;

  /// O(1) membership test against the same rule, for one edge that was in
  /// an earlier RemovableEdges() snapshot. Active degrees only ever shrink
  /// during the greedy loop, so once this turns false for an edge it stays
  /// false: the heap loop skips re-keying such an edge and drops its entry
  /// when it surfaces.
  bool IsRemovable(EdgeId e) const;

  /// Records which means edges are active right now; call before Preprocess.
  /// The confidence denominators evaluate every originally-active
  /// alternative of each mention.
  void SnapshotOriginalMeans();

  /// Section 4 confidence scores for the current (already pruned) graph: the
  /// chosen means edge's contribution normalized over all original
  /// alternatives, each evaluated in the swapped subgraph S_t. Emits in
  /// ascending mention order. Requires a prior SnapshotOriginalMeans().
  void ComputeConfidencesInto(std::vector<DensifyResult::Assignment>* out);

  /// Debug cross-check: every live support count and committed list equals
  /// a recount from the edge flags. Empty when they agree (or are stale:
  /// the next evaluation rebuilds them), else a description.
  std::string CheckWorkspaceInvariants() const;

  const std::vector<EdgeId>& means_edges() const { return ws_->means_edges; }
  const std::vector<EdgeId>& relation_edges() const {
    return ws_->relation_edges;
  }

 private:
  // Construction-time lane building (all storage in the workspace).
  void BuildUniverses();
  void BuildTypes();
  void BuildRelationLanes();
  /// TypeSignatureSum of two side keys' type lists, memoized per pattern.
  double TsPairValue(const BackgroundStats::TypeSignatureTable& table,
                     size_t pattern_id, uint64_t key_a, uint64_t key_b) const;
  uint32_t PatternIdOf(const std::string& pattern);

  /// Offset of a mention's committed list in ws_->active.
  uint32_t ActiveOffset(NodeId n) const;

  /// Recollects the committed active list of one mention: universe indices
  /// in universe order (== ascending entity order for pronouns, means-edge
  /// order for NPs). NPs read the means flags, pronouns their candidates'
  /// live support counts. Empty for non-mentions.
  void RefreshActiveList(NodeId n) const;

  /// Active support pairs of one pronoun candidate, counted off the flags.
  uint32_t CountLiveSupport(uint32_t cand) const;

  /// Recounts every live support count and rebuilds every list.
  void RebuildActiveLists() const;

  /// Rebuilds every count and list if the graph was toggled behind the
  /// evaluator's back since they were last brought up to date.
  void SyncActiveLists() const;

  /// Toggles `e`, moves the live counts of the candidates it supports and
  /// refreshes the lists of the mentions it changes.
  void SetActive(EdgeId e, bool active);

  /// Integer coherence and type-signature sums of one lane over the given
  /// side lists (an empty side with a literal type reads its literal slot).
  void LaneSums(const DensifyWorkspace::RelationLane& lane,
                std::span<const uint32_t> rows,
                std::span<const uint32_t> cols, int64_t* coh,
                int64_t* ts) const;

  /// Committed list of a lane endpoint.
  std::span<const uint32_t> ActiveList(uint32_t offset, NodeId n) const {
    return {ws_->active.data() + offset,
            ws_->active_len[static_cast<size_t>(n)]};
  }

  /// a3 * coh + a4 * ts of fixed-point sums, as a weight.
  double LaneWeightOf(int64_t coh, int64_t ts) const {
    return (params_.alpha3 * static_cast<double>(coh) +
            params_.alpha4 * static_cast<double>(ts)) /
           DensifyWorkspace::kLaneOne;
  }

  /// Lane index of a relation edge.
  size_t LaneOf(EdgeId relation) const;

  void IntersectSameAsClusters();
  void ApplyGenderConstraint();

  /// Active entities of an NP in means-edge order, duplicates preserved.
  void ActiveEntitiesOfNp(NodeId np, std::vector<EntityId>* out) const;

  SemanticGraph* graph_;
  const EntityRepository* repository_;
  const BackgroundStats* stats_;
  DensifyParams params_;
  DensifyWorkspace* ws_;
  std::unique_ptr<DensifyWorkspace> owned_;  ///< When no workspace was given.
};

/// The means lane alone: collects the edge lists and mention data into `ws`
/// and fills ws->mw_lane with w(n_i, e_ij) for every means edge. The
/// evaluator builds it first; the pipeline baseline, which reads nothing
/// else, builds only this. `graph` must be finalized.
void BuildMeansLane(const SemanticGraph& graph, const AnnotatedDocument& doc,
                    const BackgroundStats& stats,
                    const EntityRepository& repository,
                    const DensifyParams& params, DensifyWorkspace* ws);

/// Reads the surviving pronoun -> antecedent links off the pruned graph,
/// ascending by pronoun node.
std::vector<std::pair<NodeId, NodeId>> ExtractPronounAntecedents(
    const SemanticGraph& graph);

/// ExtractPronounAntecedents into a retained buffer.
void ExtractPronounAntecedentsInto(const SemanticGraph& graph,
                                   std::vector<std::pair<NodeId, NodeId>>* out);

/// Whether an assignment is a real entity link, as opposed to a leftover
/// dictionary artifact: both the normalized confidence and the absolute
/// means weight must clear small floors. The canonicalizer turns rejected
/// assignments into emerging entities; the NED experiments apply the same
/// gate.
inline bool IsConfidentLink(const DensifyResult::Assignment& a) {
  if (a.confidence < 0.05) return false;
  // Loose (partial-name) candidates additionally need real evidence; exact
  // dictionary aliases stand on their own.
  return a.exact_alias || a.weight >= 0.02;
}

}  // namespace qkbfly

#endif  // QKBFLY_DENSIFY_EVALUATOR_H_
