#include "densify/greedy_densifier.h"

#include <cstdint>
#include <vector>

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

// Indexed binary min-heap over the loop workspace: entries are EdgeIds
// ordered by (key[e], e), so ties on contribution break toward the smaller
// id, and heap_pos lets a changed key sift in place.
class EdgeHeap {
 public:
  explicit EdgeHeap(DensifyWorkspace* ws) : ws_(*ws) {}

  /// Fills the heap with `edges` under keys already stored in ws.key.
  void Build(const std::vector<EdgeId>& edges, size_t edge_count) {
    ws_.heap.assign(edges.begin(), edges.end());
    ws_.heap_pos.assign(edge_count, DensifyWorkspace::kNotInHeap);
    for (uint32_t i = 0; i < ws_.heap.size(); ++i) {
      ws_.heap_pos[static_cast<size_t>(ws_.heap[i])] = i;
    }
    for (size_t i = ws_.heap.size() / 2; i-- > 0;) {
      SiftDown(static_cast<uint32_t>(i));
    }
  }

  bool empty() const { return ws_.heap.empty(); }

  EdgeId PopMin() {
    const EdgeId top = ws_.heap.front();
    ws_.heap_pos[static_cast<size_t>(top)] = DensifyWorkspace::kNotInHeap;
    const EdgeId last = ws_.heap.back();
    ws_.heap.pop_back();
    if (!ws_.heap.empty()) {
      Place(0, last);
      SiftDown(0);
    }
    return top;
  }

  /// Re-keys an edge that is still in the heap; an equal key is a no-op.
  void Update(EdgeId e, double c) {
    double& key = ws_.key[static_cast<size_t>(e)];
    if (c == key) return;
    const bool up = c < key;
    key = c;
    const uint32_t i = ws_.heap_pos[static_cast<size_t>(e)];
    if (up) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

 private:
  bool Before(EdgeId a, EdgeId b) const {
    const double ka = ws_.key[static_cast<size_t>(a)];
    const double kb = ws_.key[static_cast<size_t>(b)];
    if (ka != kb) return ka < kb;
    return a < b;
  }

  void Place(uint32_t i, EdgeId e) {
    ws_.heap[i] = e;
    ws_.heap_pos[static_cast<size_t>(e)] = i;
  }

  void SiftUp(uint32_t i) {
    const EdgeId e = ws_.heap[i];
    while (i > 0) {
      const uint32_t parent = (i - 1) / 2;
      if (!Before(e, ws_.heap[parent])) break;
      Place(i, ws_.heap[parent]);
      i = parent;
    }
    Place(i, e);
  }

  void SiftDown(uint32_t i) {
    const EdgeId e = ws_.heap[i];
    const uint32_t n = static_cast<uint32_t>(ws_.heap.size());
    while (true) {
      uint32_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && Before(ws_.heap[child + 1], ws_.heap[child])) {
        ++child;
      }
      if (!Before(ws_.heap[child], e)) break;
      Place(i, ws_.heap[child]);
      i = child;
    }
    Place(i, e);
  }

  DensifyWorkspace& ws_;
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
  // recount, or removability decisions (and thus the KB) were wrong; so must
  // the evaluator's live support counts and committed lists, which every
  // contribution reads. The invariant walks are debug-only cross-checking,
  // off the measured hot path.
  // qkbfly-lint: allow(A1)
  QKBFLY_INVARIANT(CheckGraphInvariants(*graph), "GreedyDensifier::Densify");
  // qkbfly-lint: allow(A1)
  QKBFLY_INVARIANT(eval.CheckWorkspaceInvariants(), "GreedyDensifier::Densify");

  obs::ScopedSpan confidences(trace, "densify_confidences");
  result->objective = eval.Objective();
  eval.ComputeConfidencesInto(&result->assignments);
  // The confidence swaps toggle through the evaluator too.
  // qkbfly-lint: allow(A1)
  QKBFLY_INVARIANT(eval.CheckWorkspaceInvariants(), "GreedyDensifier::Densify");
  ExtractPronounAntecedentsInto(*graph, &result->pronoun_antecedents);
}

// Incremental greedy loop. Correctness rests on two invariants:
//
//  1. Monotone removability: active degrees only shrink inside the loop, so
//     the initial RemovableEdges() snapshot is a superset of every later
//     removable set, and an edge that fails IsRemovable() can be dropped
//     from the heap permanently when it surfaces.
//  2. Exact reader sets: a removal changes the active candidate set of the
//     mentions C it names (ChangedMentionsInto). An edge's contribution
//     sums, over the relation lanes of its sources (its mention, plus for a
//     means edge of noun phrase n the pronouns active-sameAs-linked to n),
//     the entries of the rows and columns the edge drops, so it reads the
//     lists of its sources and their relation neighbours. Its dirty
//     mentions are therefore: the changed pronouns (a pronoun's dropped
//     rows depend on its own list and support pairs), the relation
//     neighbours of C, and the noun phrases active-sameAs-linked to a
//     pronoun among those. A changed noun phrase is not dirty by itself: a
//     removable means edge e of n drops only its own row, so its
//     contribution mw[e] + W({e}, B) reads the other endpoints' lists, not
//     n's. It reads n's list only through a lane whose other end is also a
//     source: a self-loop lane, which makes n its own relation neighbour,
//     or a lane to a pronoun active-sameAs-linked to n, which is in C and
//     adds n through the pronoun route. A removed sameAs edge also drops
//     its pronoun from the sources of its noun phrase's means edges, so
//     that noun phrase is dirty too. Dirty mentions' removable edges are
//     recomputed eagerly and re-keyed in place; every other contribution is
//     bit-for-bit what a fresh evaluation would return.
//
// The heap orders (c, EdgeId), so the result equals a naive loop that
// removes the (c, EdgeId) minimum over all removable edges each round. All
// loop state (heap, positions, keys, edges-of-mention buckets,
// epoch-marked dirty set) lives in the retained workspace: zero heap
// traffic once warm.
void GreedyDensifier::RunHeapLoop(DensifyEvaluator* eval, SemanticGraph* graph,
                                  DensifyResult* result) const {
  DensifyWorkspace& ws = eval->workspace();
  const size_t n = graph->node_count();

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

  ws.key.resize(graph->edge_count());
  for (EdgeId e : ws.removable) {
    ws.key[static_cast<size_t>(e)] = eval->Contribution(e);
  }
  result->contributions_evaluated += static_cast<int>(ws.removable.size());
  EdgeHeap heap(&ws);
  heap.Build(ws.removable, graph->edge_count());

  auto add_dirty = [&ws](NodeId d) {
    uint32_t& mark = ws.dirty_mark[static_cast<size_t>(d)];
    if (mark != ws.dirty_epoch) {
      mark = ws.dirty_epoch;
      ws.dirty.push_back(d);
    }
  };

  while (!heap.empty()) {
    const EdgeId top = heap.PopMin();
    if (!eval->IsRemovable(top)) continue;  // permanently out (invariant 1)

    // C, the mentions the removal changed; read before any Contribution
    // call reuses the buffer.
    const std::vector<NodeId>& changed = eval->Deactivate(top);
    ++result->edges_removed;
    result->removal_order.push_back(top);

    ++ws.dirty_epoch;
    ws.dirty.clear();
    const GraphEdge& removed = graph->edge(top);
    if (removed.kind == EdgeKind::kSameAs) {
      add_dirty(removed.a == changed.front() ? removed.b : removed.a);
    }
    // Readers: the changed pronouns and the relation neighbours of C, read
    // off the relation lanes at each mention.
    for (NodeId c : changed) {
      if (graph->node(c).kind == NodeKind::kPronoun) add_dirty(c);
      const size_t id = static_cast<size_t>(c);
      for (uint32_t k = ws.node_lanes_off[id]; k < ws.node_lanes_off[id + 1];
           ++k) {
        const DensifyWorkspace::RelationLane& lane =
            ws.rel_lanes[ws.node_lanes[k]];
        if (!graph->edge(lane.edge).active) continue;
        add_dirty(lane.a == c ? lane.b : lane.a);
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
        // Never coming back; its entry is dropped when it surfaces.
        if (!eval->IsRemovable(de)) continue;
        heap.Update(de, eval->Contribution(de));
        ++result->contributions_evaluated;
      }
    }
  }
}

}  // namespace qkbfly
