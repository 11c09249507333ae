#include "densify/greedy_densifier.h"

#include <algorithm>

#include "graph/graph_invariants.h"
#include "util/invariants.h"
#include "util/logging.h"

namespace qkbfly {

namespace {

// Mention node an edge belongs to: the noun phrase of a means edge, the
// pronoun of a pronoun-sameAs edge. Static per edge, so it can be computed
// once when the edge enters the candidate pool.
NodeId MentionOfEdge(const SemanticGraph& graph, EdgeId e) {
  const GraphEdge& edge = graph.edge(e);
  if (edge.kind == EdgeKind::kMeans) return edge.a;
  return graph.node(edge.a).kind == NodeKind::kPronoun ? edge.a : edge.b;
}

// Min-heap on contribution, then on EdgeId — ties between distinct edges
// break toward the smaller id; ties between versions of the same edge are
// resolved by the stale-version check on pop.
struct HeapOrder {
  bool operator()(const DensifyWorkspace::HeapEntry& a,
                  const DensifyWorkspace::HeapEntry& b) const {
    if (a.c != b.c) return a.c > b.c;
    return a.e > b.e;
  }
};

}  // namespace

DensifyResult GreedyDensifier::Densify(SemanticGraph* graph,
                                       const AnnotatedDocument& doc,
                                       obs::TraceContext trace) const {
  DensifyResult result;
  Densify(graph, doc, &result, trace);
  return result;
}

void GreedyDensifier::Densify(SemanticGraph* graph, const AnnotatedDocument& doc,
                              DensifyResult* result,
                              obs::TraceContext trace) const {
  // One retained workspace per thread: universes, weight lanes and loop
  // buffers all live there, so a warm thread densifies a stream of documents
  // without heap allocations. thread_local keeps the batch pipeline's
  // worker threads from sharing state.
  static thread_local DensifyWorkspace workspace;

  result->Clear();
  obs::ScopedSpan lanes(trace, "densify_lanes");
  DensifyEvaluator eval(graph, doc, stats_, repository_, params_, &workspace);
  lanes.End();

  obs::ScopedSpan loop(trace, "densify_loop");
  eval.SnapshotOriginalMeans();
  eval.Preprocess();
  RunHeapLoop(&eval, graph, result);
  loop.End();

  // After the removal loop the O(1) degree counters must agree with a full
  // recount, or removability decisions (and thus the KB) were wrong. The
  // invariant walk is debug-only cross-checking, off the measured hot path.
  // qkbfly-lint: allow(A1)
  QKBFLY_INVARIANT(CheckGraphInvariants(*graph), "GreedyDensifier::Densify");

  obs::ScopedSpan confidences(trace, "densify_confidences");
  result->objective = eval.Objective();
  eval.ComputeConfidencesInto(&result->assignments);
  ExtractPronounAntecedentsInto(*graph, &result->pronoun_antecedents);
}

// Incremental greedy loop. Correctness rests on two invariants:
//
//  1. Monotone removability: active degrees only shrink inside the loop, so
//     the initial RemovableEdges() snapshot is a superset of every later
//     removable set, and an edge that fails IsRemovable() can be dropped
//     from the heap permanently.
//  2. Exact invalidation: a removal changes the active candidate set of the
//     mentions C it names (ChangedMentionsInto). A relation lane reads the
//     candidate sets of its two endpoints, so the lanes whose weight changed
//     are those incident to C; their readers are C plus its relation
//     neighbours. An edge's contribution sums the lanes of its sources (its
//     mention, plus for a means edge the pronouns sameAs-linked to its noun
//     phrase), so the dirty mentions are the readers plus the noun phrases
//     active-sameAs-linked to a pronoun reader. A removed sameAs edge also
//     drops its pronoun from the sources of its noun phrase's means edges,
//     so that noun phrase is dirty too. Dirty mentions' edges are
//     recomputed eagerly (bumping the edge's version so stale heap entries
//     are discarded on pop); every other contribution is bit-for-bit what a
//     fresh evaluation would return.
//
// Ties on contribution break toward the smaller EdgeId via the heap order,
// so the result equals a naive loop that removes the (c, EdgeId) minimum
// over all removable edges each round. All loop state (heap vector, version
// array, edges-of-mention buckets, epoch-marked dirty set) lives in the
// retained workspace: zero heap traffic once warm.
void GreedyDensifier::RunHeapLoop(DensifyEvaluator* eval, SemanticGraph* graph,
                                  DensifyResult* result) const {
  DensifyWorkspace& ws = eval->workspace();
  const size_t n = graph->node_count();

  ws.version.assign(graph->edge_count(), 0);
  ws.dirty_mark.assign(n, 0);
  ws.dirty_epoch = 0;

  // Candidate edges grouped by their (static) mention node; the initial
  // removable set is a superset of all future ones (invariant 1), so no
  // edge ever needs to be added later.
  eval->RemovableEdgesInto(&ws.removable);
  ws.eom_off.assign(n + 1, 0);
  for (EdgeId e : ws.removable) {
    ++ws.eom_off[static_cast<size_t>(MentionOfEdge(*graph, e)) + 1];
  }
  for (size_t i = 0; i < n; ++i) ws.eom_off[i + 1] += ws.eom_off[i];
  ws.cursor.assign(ws.eom_off.begin(), ws.eom_off.end() - 1);
  ws.eom_data.resize(ws.removable.size());
  for (EdgeId e : ws.removable) {
    ws.eom_data[ws.cursor[static_cast<size_t>(MentionOfEdge(*graph, e))]++] = e;
  }

  const HeapOrder order;
  ws.heap.clear();
  for (EdgeId e : ws.removable) {
    ws.heap.push_back({eval->Contribution(e), e, 0});
    std::push_heap(ws.heap.begin(), ws.heap.end(), order);
  }

  auto add_dirty = [&ws](NodeId d) {
    uint32_t& mark = ws.dirty_mark[static_cast<size_t>(d)];
    if (mark != ws.dirty_epoch) {
      mark = ws.dirty_epoch;
      ws.dirty.push_back(d);
    }
  };

  while (!ws.heap.empty()) {
    const DensifyWorkspace::HeapEntry top = ws.heap.front();
    std::pop_heap(ws.heap.begin(), ws.heap.end(), order);
    ws.heap.pop_back();
    if (ws.version[static_cast<size_t>(top.e)] != top.version) continue;  // stale
    if (!eval->IsRemovable(top.e)) continue;  // permanently out (invariant 1)

    eval->ChangedMentionsInto(top.e, &ws.changed);
    eval->Deactivate(top.e);
    ++result->edges_removed;
    result->removal_order.push_back(top.e);
    ++ws.version[static_cast<size_t>(top.e)];  // no heap entry survives removal

    ++ws.dirty_epoch;
    ws.dirty.clear();
    const GraphEdge& removed = graph->edge(top.e);
    if (removed.kind == EdgeKind::kSameAs) {
      add_dirty(removed.a == ws.changed.front() ? removed.b : removed.a);
    }
    // Readers: the changed mentions and their relation neighbours.
    for (NodeId c : ws.changed) {
      add_dirty(c);
      for (EdgeId r : graph->IncidentEdges(c)) {
        const GraphEdge& re = graph->edge(r);
        if (!re.active || re.kind != EdgeKind::kRelation) continue;
        add_dirty(re.a == c ? re.b : re.a);
      }
    }
    // Noun phrases whose means edges count a pronoun reader as a source.
    const size_t readers = ws.dirty.size();
    for (size_t i = 0; i < readers; ++i) {
      const NodeId p = ws.dirty[i];
      if (graph->node(p).kind != NodeKind::kPronoun) continue;
      for (EdgeId se : graph->IncidentEdges(p)) {
        const GraphEdge& s = graph->edge(se);
        if (!s.active || s.kind != EdgeKind::kSameAs) continue;
        const NodeId np = s.a == p ? s.b : s.a;
        if (graph->node(np).kind == NodeKind::kNounPhrase) add_dirty(np);
      }
    }
    for (NodeId d : ws.dirty) {
      const size_t id = static_cast<size_t>(d);
      for (uint32_t k = ws.eom_off[id]; k < ws.eom_off[id + 1]; ++k) {
        const EdgeId de = ws.eom_data[k];
        if (!eval->IsRemovable(de)) continue;  // never coming back; skip
        ++ws.version[static_cast<size_t>(de)];
        ws.heap.push_back({eval->Contribution(de), de,
                           ws.version[static_cast<size_t>(de)]});
        std::push_heap(ws.heap.begin(), ws.heap.end(), order);
      }
    }
  }
}

}  // namespace qkbfly
