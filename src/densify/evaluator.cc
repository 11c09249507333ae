#include "densify/evaluator.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace qkbfly {

namespace {

// Side keys of the type-signature memo: entity ids, or literal node ids
// tagged with the high bit; an (absurdly large) entity id that would collide
// with the tag bypasses the cache instead.
constexpr uint64_t kLiteralBit = 0x80000000ull;
constexpr uint64_t kUncacheable = ~0ull;

uint64_t CoherenceKey(EntityId e1, EntityId e2) {
  return (static_cast<uint64_t>(e1) << 32) | e2;
}

/// One relation-edge side: a view of the node's candidate universe.
struct SideRef {
  uint32_t off = 0;
  uint32_t len = 0;
  bool pronoun = false;
};

SideRef SideOf(const SemanticGraph& graph, const DensifyWorkspace& ws,
               NodeId node) {
  const GraphNode& n = graph.node(node);
  const size_t i = static_cast<size_t>(node);
  if (n.kind == NodeKind::kPronoun) {
    return {ws.pro_univ_off[i], ws.pro_univ_off[i + 1] - ws.pro_univ_off[i],
            true};
  }
  if (n.kind == NodeKind::kNounPhrase && !n.is_literal) {
    return {ws.np_univ_off[i], ws.np_univ_off[i + 1] - ws.np_univ_off[i],
            false};
  }
  return {};
}

EntityId EntityAt(const DensifyWorkspace& ws, const SideRef& s, uint32_t i) {
  return s.pronoun ? ws.pro_univ[s.off + i].entity
                   : ws.np_univ[s.off + i].entity;
}

NodeId EntityNodeAt(const DensifyWorkspace& ws, const SideRef& s, uint32_t i) {
  return s.pronoun ? ws.pro_univ[s.off + i].entity_node
                   : ws.np_univ[s.off + i].entity_node;
}

// Mention data the means lane reads: lowercased text, exact-alias
// candidates and whether the node has a sentence context.
void BuildMentionData(const SemanticGraph& graph, const AnnotatedDocument& doc,
                      const EntityRepository& repository,
                      DensifyWorkspace* ws) {
  const size_t n = graph.node_count();
  if (ws->lowered.size() < n) ws->lowered.resize(n);  // strings never shrink
  ws->exact.assign(n, nullptr);
  ws->has_context.assign(n, 0);
  const size_t sentences = doc.sentences.size();
  if (ws->sentence_contexts.size() < sentences) {
    ws->sentence_contexts.resize(sentences);
  }
  ws->sentence_built.assign(sentences, 0);
  for (size_t i = 0; i < n; ++i) {
    const GraphNode& node = graph.node(static_cast<NodeId>(i));
    if (node.kind == NodeKind::kEntity) continue;
    LowercaseInto(node.text, &ws->lowered[i]);
    ws->exact[i] = &repository.CandidatesForAliasLowered(ws->lowered[i]);
    if ((node.kind == NodeKind::kNounPhrase ||
         node.kind == NodeKind::kPronoun) &&
        node.sentence >= 0 &&
        node.sentence < static_cast<int>(sentences)) {
      ws->has_context[i] = 1;
    }
  }
}

}  // namespace

void BuildMeansLane(SemanticGraph* graph, const AnnotatedDocument& doc,
                    const BackgroundStats& stats,
                    const EntityRepository& repository,
                    const DensifyParams& params, DensifyWorkspace* ws) {
  // Hand-built test graphs arrive unfinalized; every adjacency query runs
  // off the CSR index.
  graph->Finalize();
  ws->means_edges.clear();
  ws->relation_edges.clear();
  const size_t edges = graph->edge_count();
  for (size_t e = 0; e < edges; ++e) {
    switch (graph->edge(static_cast<EdgeId>(e)).kind) {
      case EdgeKind::kMeans:
        ws->means_edges.push_back(static_cast<EdgeId>(e));
        break;
      case EdgeKind::kRelation:
        ws->relation_edges.push_back(static_cast<EdgeId>(e));
        break;
      default:
        break;
    }
  }
  BuildMentionData(*graph, doc, repository, ws);

  // w(n_i, e_ij) = a1 * prior + a2 * sim, dampened 0.3x for loose
  // (partial-name) candidates — the exact MeansWeight formula, one value per
  // means edge. Mention contexts are shared per sentence (they are a pure
  // function of the sentence tokens).
  ws->mw_lane.assign(edges, 0.0);
  for (EdgeId m : ws->means_edges) {
    const GraphEdge& edge = graph->edge(m);
    const size_t np = static_cast<size_t>(edge.a);
    const EntityId entity = graph->node(edge.b).entity;
    double prior = stats.PriorLowered(ws->lowered[np], entity);
    double sim = 0.0;
    if (ws->has_context[np]) {
      const size_t s = static_cast<size_t>(graph->node(edge.a).sentence);
      if (!ws->sentence_built[s]) {
        stats.MentionContextInto(doc.sentences[s].tokens, &ws->scratch,
                                 &ws->sentence_contexts[s]);
        ws->sentence_built[s] = 1;
      }
      sim = WeightedOverlap(ws->sentence_contexts[s],
                            stats.EntityContext(entity));
    }
    double weight = params.alpha1 * prior + params.alpha2 * sim;
    const std::vector<EntityId>* exact = ws->exact[np];
    const bool is_exact =
        exact != nullptr &&
        std::find(exact->begin(), exact->end(), entity) != exact->end();
    ws->mw_lane[static_cast<size_t>(m)] = is_exact ? weight : 0.3 * weight;
  }
}

DensifyEvaluator::DensifyEvaluator(SemanticGraph* graph,
                                   const AnnotatedDocument& doc,
                                   const BackgroundStats* stats,
                                   const EntityRepository* repository,
                                   const DensifyParams& params,
                                   DensifyWorkspace* workspace)
    : graph_(graph), repository_(repository), stats_(stats),
      params_(params), ws_(workspace) {
  if (ws_ == nullptr) {
    owned_ = std::make_unique<DensifyWorkspace>();
    ws_ = owned_.get();
  }
  BuildMeansLane(graph_, doc, *stats_, *repository_, params_, ws_);
  BuildTypes();
  BuildUniverses();
  BuildRelationLanes();
}

void DensifyEvaluator::BuildTypes() {
  DensifyWorkspace& ws = *ws_;
  const size_t n = graph_->node_count();
  ws.types_of_node.assign(n, DensifyWorkspace::TypeRef{});
  ws.type_pool.clear();
  ws.literal_type.assign(n, 0);
  ws.has_literal_type.assign(n, 0);
  ws.visit_mark.assign(n, 0);
  ws.visit_epoch = 0;

  const TypeSystem& ts = repository_->type_system();
  for (size_t i = 0; i < n; ++i) {
    const GraphNode& node = graph_->node(static_cast<NodeId>(i));
    if (node.kind == NodeKind::kEntity) {
      // The entity's types with ancestors, flattened in repository order
      // (no dedup).
      uint32_t off = static_cast<uint32_t>(ws.type_pool.size());
      for (TypeId t : repository_->Get(node.entity).types) {
        ts.AncestorsInto(t, &ws.type_pool);
      }
      ws.types_of_node[i] = {off,
                             static_cast<uint32_t>(ws.type_pool.size()) - off};
      continue;
    }
    // Literal / coarse-NER type of the node (at most one): out-of-repository
    // names still carry their coarse NER type, which lets type signatures
    // constrain relations with emerging arguments. The Find keys are short
    // coarse-type names, so the temporary map key stays in SSO storage.
    if (node.ner == NerType::kTime) {
      ws.literal_type[i] = ts.time();
      ws.has_literal_type[i] = 1;
    } else if (node.ner == NerType::kNumber) {
      ws.literal_type[i] = ts.number();
      ws.has_literal_type[i] = 1;
    } else if (node.ner != NerType::kNone) {
      if (auto type = ts.Find(NerTypeName(node.ner))) {
        ws.literal_type[i] = *type;
        ws.has_literal_type[i] = 1;
      }
    }
  }
}

void DensifyEvaluator::BuildUniverses() {
  DensifyWorkspace& ws = *ws_;
  const size_t n = graph_->node_count();

  // NP universes: stable counting sort of the means edges by their mention,
  // so each noun phrase's universe is its means edges in ascending EdgeId
  // order — the exact EntOfNp / ActiveMeans enumeration order.
  ws.np_univ_off.assign(n + 1, 0);
  for (EdgeId m : ws.means_edges) {
    ++ws.np_univ_off[static_cast<size_t>(graph_->edge(m).a) + 1];
  }
  for (size_t i = 0; i < n; ++i) ws.np_univ_off[i + 1] += ws.np_univ_off[i];
  ws.cursor.assign(ws.np_univ_off.begin(), ws.np_univ_off.end() - 1);
  ws.np_univ.resize(ws.means_edges.size());
  for (EdgeId m : ws.means_edges) {
    const GraphEdge& e = graph_->edge(m);
    ws.np_univ[ws.cursor[static_cast<size_t>(e.a)]++] = {
        m, e.b, graph_->node(e.b).entity};
  }

  // Pronoun universes: distinct gender-compatible entities over all
  // NP-linked sameAs neighbors, ascending by entity (the EntOfPronoun
  // sort+unique order), each entity backed by its (sameAs, means) support
  // pairs.
  ws.pro_univ_off.assign(n + 1, 0);
  ws.pro_univ.clear();
  ws.pro_pairs.clear();
  for (NodeId p : graph_->NodesOfKind(NodeKind::kPronoun)) {
    const GraphNode& pro = graph_->node(p);
    ws.pro_triples.clear();
    for (EdgeId se : graph_->IncidentEdges(p)) {
      const GraphEdge& s = graph_->edge(se);
      if (s.kind != EdgeKind::kSameAs) continue;
      NodeId np = s.a == p ? s.b : s.a;
      if (graph_->node(np).kind != NodeKind::kNounPhrase) continue;
      for (uint32_t i = ws.np_univ_off[static_cast<size_t>(np)];
           i < ws.np_univ_off[static_cast<size_t>(np) + 1]; ++i) {
        const DensifyWorkspace::MeansCandidate& cand = ws.np_univ[i];
        // Constraint (4) is static: the repository gender never changes.
        if (GenderConflict(pro, cand.entity)) continue;
        ws.pro_triples.push_back({cand.entity, cand.entity_node, se, cand.edge});
      }
    }
    std::sort(ws.pro_triples.begin(), ws.pro_triples.end(),
              [](const DensifyWorkspace::PronounTriple& x,
                 const DensifyWorkspace::PronounTriple& y) {
                if (x.entity != y.entity) return x.entity < y.entity;
                if (x.same_as != y.same_as) return x.same_as < y.same_as;
                return x.means < y.means;
              });
    size_t k = 0;
    while (k < ws.pro_triples.size()) {
      const EntityId entity = ws.pro_triples[k].entity;
      const NodeId entity_node = ws.pro_triples[k].entity_node;
      const uint32_t begin = static_cast<uint32_t>(ws.pro_pairs.size());
      while (k < ws.pro_triples.size() && ws.pro_triples[k].entity == entity) {
        ws.pro_pairs.push_back(
            {ws.pro_triples[k].same_as, ws.pro_triples[k].means});
        ++k;
      }
      ws.pro_univ.push_back({entity, entity_node, begin,
                             static_cast<uint32_t>(ws.pro_pairs.size())});
    }
    ws.pro_univ_off[static_cast<size_t>(p) + 1] =
        static_cast<uint32_t>(ws.pro_univ.size());
  }
  // Fill forward so the offsets form a proper CSR over all nodes.
  for (size_t i = 1; i <= n; ++i) {
    if (ws.pro_univ_off[i] < ws.pro_univ_off[i - 1]) {
      ws.pro_univ_off[i] = ws.pro_univ_off[i - 1];
    }
  }

  // Pronoun links per noun phrase: a counting sort of the pronoun-NP sameAs
  // edges by their noun phrase.
  auto for_each_link = [&](auto&& f) {
    for (NodeId p : graph_->NodesOfKind(NodeKind::kPronoun)) {
      for (EdgeId se : graph_->IncidentEdges(p)) {
        const GraphEdge& s = graph_->edge(se);
        if (s.kind != EdgeKind::kSameAs) continue;
        const NodeId np = s.a == p ? s.b : s.a;
        if (graph_->node(np).kind == NodeKind::kNounPhrase) f(np, se, p);
      }
    }
  };
  ws.np_links_off.assign(n + 1, 0);
  for_each_link([&ws](NodeId np, EdgeId, NodeId) {
    ++ws.np_links_off[static_cast<size_t>(np) + 1];
  });
  for (size_t i = 0; i < n; ++i) ws.np_links_off[i + 1] += ws.np_links_off[i];
  ws.cursor.assign(ws.np_links_off.begin(), ws.np_links_off.end() - 1);
  ws.np_links.resize(ws.np_links_off[n]);
  for_each_link([&ws](NodeId np, EdgeId se, NodeId p) {
    ws.np_links[ws.cursor[static_cast<size_t>(np)]++] = {se, p};
  });
}

uint32_t DensifyEvaluator::PatternIdOf(const std::string& pattern) {
  auto& pats = ws_->patterns;
  for (size_t i = 0; i < pats.size(); ++i) {
    if (*pats[i].first == pattern) return static_cast<uint32_t>(i);
  }
  pats.emplace_back(&pattern, stats_->FindTypeSignatureTable(pattern));
  if (ws_->ts_caches.size() < pats.size()) ws_->ts_caches.emplace_back();
  ws_->ts_caches[pats.size() - 1].Reset(64);
  return static_cast<uint32_t>(pats.size() - 1);
}

double DensifyEvaluator::TsPairValue(
    const BackgroundStats::TypeSignatureTable& table, size_t pattern_id,
    uint64_t key_a, uint64_t key_b, Span<TypeId> types_a,
    Span<TypeId> types_b) const {
  if (key_a == kUncacheable || key_b == kUncacheable) {
    return stats_->TypeSignatureSum(table, types_a, types_b);
  }
  const uint64_t pair_key = (key_a << 32) | key_b;
  FlatPairCache& cache = ws_->ts_caches[pattern_id];
  if (const double* hit = cache.Lookup(pair_key)) return *hit;
  double value = stats_->TypeSignatureSum(table, types_a, types_b);
  cache.Insert(pair_key, value);
  return value;
}

void DensifyEvaluator::BuildRelationLanes() {
  DensifyWorkspace& ws = *ws_;
  const size_t edges = graph_->edge_count();

  // Relation lanes: per edge, dense per-pair term matrices with the
  // looseness factors folded in, so the greedy loop's re-evaluations are
  // pure gathers. Each entry is one summand of the relation weight,
  // factor_a * factor_b * memoized pure value, in fixed point.
  ws.rel_lanes.clear();
  ws.lane_of_edge.assign(edges, -1);
  ws.coh_pool.clear();
  ws.ts_pool.clear();
  ws.patterns.clear();
  ws.coherence_cache.Reset(2 * edges + 16);
  // Sum over lanes of (largest entry x cells): it bounds every lane sum, the
  // objective and every contribution delta (a lane counts at most twice).
  int64_t sum_bound = 0;
  auto add_bound = [&sum_bound](int64_t max_entry, size_t cells) {
    int64_t lane_bound = 0;
    QKB_CHECK(!__builtin_mul_overflow(max_entry, static_cast<int64_t>(cells),
                                      &lane_bound) &&
              !__builtin_add_overflow(sum_bound, lane_bound, &sum_bound) &&
              sum_bound <= INT64_MAX / 2)
        << "fixed-point lane sums could overflow int64_t";
  };
  auto to_fixed = [](double v) {
    return static_cast<int64_t>(std::llround(v * DensifyWorkspace::kLaneOne));
  };

  for (EdgeId r : ws.relation_edges) {
    const GraphEdge& e = graph_->edge(r);
    DensifyWorkspace::RelationLane lane;
    lane.edge = r;
    lane.a = e.a;
    lane.b = e.b;
    const SideRef sa = SideOf(*graph_, ws, e.a);
    const SideRef sb = SideOf(*graph_, ws, e.b);
    lane.ua_len = sa.len;
    lane.ub_len = sb.len;
    lane.act_a = ActiveOffset(e.a);
    lane.act_b = ActiveOffset(e.b);
    lane.lit_a = ws.has_literal_type[static_cast<size_t>(e.a)] != 0;
    lane.lit_b = ws.has_literal_type[static_cast<size_t>(e.b)] != 0;

    // Looseness factors: 1.0 for exact alias candidates, 0.3 for loose ones.
    const std::vector<EntityId>* exact_a = ws.exact[static_cast<size_t>(e.a)];
    const std::vector<EntityId>* exact_b = ws.exact[static_cast<size_t>(e.b)];
    ws.factor_a.resize(sa.len);
    for (uint32_t i = 0; i < sa.len; ++i) {
      EntityId ent = EntityAt(ws, sa, i);
      ws.factor_a[i] =
          (exact_a != nullptr &&
           std::find(exact_a->begin(), exact_a->end(), ent) != exact_a->end())
              ? 1.0
              : 0.3;
    }
    ws.factor_b.resize(sb.len);
    for (uint32_t j = 0; j < sb.len; ++j) {
      EntityId ent = EntityAt(ws, sb, j);
      ws.factor_b[j] =
          (exact_b != nullptr &&
           std::find(exact_b->begin(), exact_b->end(), ent) != exact_b->end())
              ? 1.0
              : 0.3;
    }

    const uint32_t pid = PatternIdOf(e.label);
    const BackgroundStats::TypeSignatureTable table = ws.patterns[pid].second;

    // Coherence matrix: |Ua| x |Ub|.
    lane.coh_off = static_cast<uint32_t>(ws.coh_pool.size());
    int64_t max_coh = 0;
    for (uint32_t i = 0; i < sa.len; ++i) {
      const EntityId ea = EntityAt(ws, sa, i);
      for (uint32_t j = 0; j < sb.len; ++j) {
        const EntityId eb = EntityAt(ws, sb, j);
        const uint64_t key = CoherenceKey(ea, eb);
        double coh;
        if (const double* hit = ws.coherence_cache.Lookup(key)) {
          coh = *hit;
        } else {
          coh = stats_->Coherence(ea, eb);
          ws.coherence_cache.Insert(key, coh);
        }
        const int64_t entry = to_fixed(ws.factor_a[i] * ws.factor_b[j] * coh);
        max_coh = std::max(max_coh, entry);
        ws.coh_pool.push_back(entry);
      }
    }
    add_bound(max_coh, static_cast<size_t>(sa.len) * sb.len);

    // Type-signature matrix: (|Ua|+1) x (|Ub|+1); the last row/column is the
    // literal fallback, selected at evaluation time when a side's active set
    // is empty. Slots for absent literal types are zero-filled placeholders
    // that are never read.
    lane.ts_off = static_cast<uint32_t>(ws.ts_pool.size());
    int64_t max_ts = 0;
    for (uint32_t i = 0; i <= sa.len; ++i) {
      const bool row_lit = (i == sa.len);
      uint64_t ka = 0;
      Span<TypeId> ta(nullptr, 0);
      double tfa = 1.0;
      bool row_valid = true;
      if (row_lit) {
        if (!lane.lit_a) {
          row_valid = false;
        } else {
          ka = kLiteralBit | static_cast<uint64_t>(static_cast<uint32_t>(e.a));
          ta = Span<TypeId>(ws.literal_type.data() + static_cast<size_t>(e.a),
                            1);
        }
      } else {
        const EntityId ea = EntityAt(ws, sa, i);
        ka = ea < kLiteralBit ? ea : kUncacheable;
        const DensifyWorkspace::TypeRef tr =
            ws.types_of_node[static_cast<size_t>(EntityNodeAt(ws, sa, i))];
        ta = Span<TypeId>(ws.type_pool.data() + tr.off, tr.len);
        tfa = ws.factor_a[i];
      }
      for (uint32_t j = 0; j <= sb.len; ++j) {
        const bool col_lit = (j == sb.len);
        if (!row_valid || (col_lit && !lane.lit_b)) {
          ws.ts_pool.push_back(0);
          continue;
        }
        uint64_t kb;
        Span<TypeId> tb(nullptr, 0);
        double tfb = 1.0;
        if (col_lit) {
          kb = kLiteralBit | static_cast<uint64_t>(static_cast<uint32_t>(e.b));
          tb = Span<TypeId>(ws.literal_type.data() + static_cast<size_t>(e.b),
                            1);
        } else {
          const EntityId eb = EntityAt(ws, sb, j);
          kb = eb < kLiteralBit ? eb : kUncacheable;
          const DensifyWorkspace::TypeRef tr =
              ws.types_of_node[static_cast<size_t>(EntityNodeAt(ws, sb, j))];
          tb = Span<TypeId>(ws.type_pool.data() + tr.off, tr.len);
          tfb = ws.factor_b[j];
        }
        const double value = TsPairValue(table, pid, ka, kb, ta, tb);
        const int64_t entry = to_fixed(tfa * tfb * value);
        max_ts = std::max(max_ts, entry);
        ws.ts_pool.push_back(entry);
      }
    }
    add_bound(max_ts, (static_cast<size_t>(sa.len) + 1) * (sb.len + 1));

    ws.lane_of_edge[static_cast<size_t>(r)] =
        static_cast<int32_t>(ws.rel_lanes.size());
    ws.rel_lanes.push_back(lane);
  }

  // Lanes by endpoint (a self-loop lane is listed twice), for the lane
  // walks of Contribution.
  const size_t n = graph_->node_count();
  ws.node_lanes_off.assign(n + 1, 0);
  for (const DensifyWorkspace::RelationLane& lane : ws.rel_lanes) {
    ++ws.node_lanes_off[static_cast<size_t>(lane.a) + 1];
    ++ws.node_lanes_off[static_cast<size_t>(lane.b) + 1];
  }
  for (size_t i = 0; i < n; ++i) ws.node_lanes_off[i + 1] += ws.node_lanes_off[i];
  ws.cursor.assign(ws.node_lanes_off.begin(), ws.node_lanes_off.end() - 1);
  ws.node_lanes.resize(2 * ws.rel_lanes.size());
  for (size_t li = 0; li < ws.rel_lanes.size(); ++li) {
    const DensifyWorkspace::RelationLane& lane = ws.rel_lanes[li];
    ws.node_lanes[ws.cursor[static_cast<size_t>(lane.a)]++] =
        static_cast<uint32_t>(li);
    ws.node_lanes[ws.cursor[static_cast<size_t>(lane.b)]++] =
        static_cast<uint32_t>(li);
  }

  ws.active.resize(ws.np_univ.size() + ws.pro_univ.size());
  ws.active_len.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    RefreshActiveList(static_cast<NodeId>(i));
  }
  ws.active_mutations = graph_->mutation_count();
}

std::vector<EntityId> DensifyEvaluator::EntOfNp(NodeId np) const {
  std::vector<EntityId> out;
  // Same traversal order as ActiveMeans, without materializing the edge
  // pairs. Kept graph-walking for the ILP translation and tests; the flat
  // paths use the universe arrays instead.
  for (EdgeId e : graph_->IncidentEdges(np)) {
    const GraphEdge& edge = graph_->edge(e);
    if (!edge.active || edge.kind != EdgeKind::kMeans || edge.a != np) continue;
    out.push_back(graph_->node(edge.b).entity);
  }
  return out;
}

std::vector<EntityId> DensifyEvaluator::EntOfPronoun(NodeId p) const {
  const GraphNode& pro = graph_->node(p);
  std::vector<EntityId> out;
  for (const auto& [edge, np] : graph_->ActiveSameAs(p)) {
    if (graph_->node(np).kind != NodeKind::kNounPhrase) continue;
    for (EntityId e : EntOfNp(np)) {
      if (GenderConflict(pro, e)) continue;  // constraint (4)
      out.push_back(e);
    }
  }
  // Ascending unique, exactly as the former std::set produced.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<EntityId> DensifyEvaluator::EntOf(NodeId node) const {
  const GraphNode& n = graph_->node(node);
  if (n.kind == NodeKind::kPronoun) return EntOfPronoun(node);
  if (n.kind == NodeKind::kNounPhrase && !n.is_literal) return EntOfNp(node);
  return {};
}

bool DensifyEvaluator::GenderConflict(const GraphNode& pronoun, EntityId e) const {
  if (pronoun.gender == Gender::kUnknown) return false;
  Gender g = repository_->Get(e).gender;
  if (g == Gender::kUnknown) return false;
  return g != pronoun.gender;
}

uint32_t DensifyEvaluator::ActiveOffset(NodeId n) const {
  const size_t id = static_cast<size_t>(n);
  if (graph_->node(n).kind == NodeKind::kPronoun) {
    return static_cast<uint32_t>(ws_->np_univ.size()) + ws_->pro_univ_off[id];
  }
  return ws_->np_univ_off[id];
}

void DensifyEvaluator::RefreshActiveList(NodeId n) const {
  DensifyWorkspace& ws = *ws_;
  const GraphNode& node = graph_->node(n);
  const size_t id = static_cast<size_t>(n);
  uint32_t* out = ws.active.data() + ActiveOffset(n);
  uint32_t len = 0;
  if (node.kind == NodeKind::kPronoun) {
    const uint32_t begin = ws.pro_univ_off[id];
    const uint32_t end = ws.pro_univ_off[id + 1];
    for (uint32_t i = begin; i < end; ++i) {
      const DensifyWorkspace::PronounCandidate& c = ws.pro_univ[i];
      for (uint32_t k = c.pair_begin; k < c.pair_end; ++k) {
        const DensifyWorkspace::SupportPair& pair = ws.pro_pairs[k];
        if (graph_->edge(pair.same_as).active &&
            graph_->edge(pair.means).active) {
          out[len++] = i - begin;
          break;
        }
      }
    }
  } else if (node.kind == NodeKind::kNounPhrase && !node.is_literal) {
    const uint32_t begin = ws.np_univ_off[id];
    const uint32_t end = ws.np_univ_off[id + 1];
    for (uint32_t i = begin; i < end; ++i) {
      if (graph_->edge(ws.np_univ[i].edge).active) out[len++] = i - begin;
    }
  }
  ws.active_len[id] = len;
}

void DensifyEvaluator::SyncActiveLists() const {
  if (ws_->active_mutations == graph_->mutation_count()) return;
  for (size_t i = 0; i < graph_->node_count(); ++i) {
    RefreshActiveList(static_cast<NodeId>(i));
  }
  ws_->active_mutations = graph_->mutation_count();
}

void DensifyEvaluator::SetActive(EdgeId e, bool active) {
  SyncActiveLists();
  // A means edge changes the same mentions whether it goes off or on.
  ChangedMentionsInto(e, &ws_->sources);
  graph_->SetEdgeActive(e, active);
  for (NodeId s : ws_->sources) RefreshActiveList(s);
  ws_->active_mutations = graph_->mutation_count();
}

void DensifyEvaluator::Deactivate(EdgeId e) { SetActive(e, false); }

namespace {

// Sum of m[i * stride + j] over i in rows, j in cols.
int64_t BlockSum(const int64_t* m, size_t stride, Span<uint32_t> rows,
                 Span<uint32_t> cols) {
  int64_t sum = 0;
  if (cols.empty()) return sum;
  for (uint32_t i : rows) {
    const int64_t* row = m + static_cast<size_t>(i) * stride;
    for (uint32_t j : cols) sum += row[j];
  }
  return sum;
}

// Rows (columns) a type-signature gather reads for one side: its active
// list, or the literal slot when the list is empty and the side has a
// literal type.
Span<uint32_t> TsSide(Span<uint32_t> list, bool literal,
                      const uint32_t* literal_slot) {
  if (list.empty() && literal) return {literal_slot, 1};
  return list;
}

}  // namespace

void DensifyEvaluator::LaneSums(const DensifyWorkspace::RelationLane& lane,
                                Span<uint32_t> rows, Span<uint32_t> cols,
                                int64_t* coh, int64_t* ts) const {
  *coh = BlockSum(ws_->coh_pool.data() + lane.coh_off, lane.ub_len, rows, cols);
  // Empty active sides fall back to the literal row/column; an empty side
  // without literal types contributes no rows/columns at all.
  *ts = BlockSum(ws_->ts_pool.data() + lane.ts_off,
                 static_cast<size_t>(lane.ub_len) + 1,
                 TsSide(rows, lane.lit_a, &lane.ua_len),
                 TsSide(cols, lane.lit_b, &lane.ub_len));
}

double DensifyEvaluator::PairWeight(EdgeId relation, EntityId a,
                                    EntityId b) const {
  const DensifyWorkspace::RelationLane& lane = ws_->rel_lanes[LaneOf(relation)];
  // Row (column) of one side: the candidate's universe index, or the literal
  // slot past the end. Returns false when the side selects nothing.
  auto slot_of = [&](NodeId node, EntityId e, bool has_literal,
                     uint32_t* slot) {
    const SideRef side = SideOf(*graph_, *ws_, node);
    if (e == kInvalidEntity) {
      *slot = side.len;
      return has_literal;
    }
    for (uint32_t i = 0; i < side.len; ++i) {
      if (EntityAt(*ws_, side, i) == e) {
        *slot = i;
        return true;
      }
    }
    QKB_CHECK(false) << "entity " << e << " outside the candidate universe";
    return false;
  };
  uint32_t i = 0;
  uint32_t j = 0;
  const bool row = slot_of(lane.a, a, lane.lit_a, &i);
  const bool col = slot_of(lane.b, b, lane.lit_b, &j);

  int64_t coherence = 0;
  int64_t ts_score = 0;
  if (row && col) {
    if (i < lane.ua_len && j < lane.ub_len) {
      coherence = ws_->coh_pool[lane.coh_off +
                                static_cast<size_t>(i) * lane.ub_len + j];
    }
    ts_score = ws_->ts_pool[lane.ts_off +
                            static_cast<size_t>(i) * (lane.ub_len + 1) + j];
  }
  return LaneWeightOf(coherence, ts_score);
}

size_t DensifyEvaluator::LaneOf(EdgeId relation) const {
  const int32_t lane = ws_->lane_of_edge[static_cast<size_t>(relation)];
  QKB_CHECK(lane >= 0);
  return static_cast<size_t>(lane);
}

double DensifyEvaluator::RelationEdgeWeight(EdgeId e) const {
  SyncActiveLists();
  const DensifyWorkspace::RelationLane& lane = ws_->rel_lanes[LaneOf(e)];
  int64_t coh = 0;
  int64_t ts = 0;
  LaneSums(lane, ActiveList(lane.act_a, lane.a), ActiveList(lane.act_b, lane.b),
           &coh, &ts);
  return LaneWeightOf(coh, ts);
}

double DensifyEvaluator::Objective() const {
  SyncActiveLists();
  double total = 0.0;
  for (EdgeId e : ws_->means_edges) {
    if (!graph_->edge(e).active) continue;
    total += ws_->mw_lane[static_cast<size_t>(e)];
  }
  int64_t coh = 0;
  int64_t ts = 0;
  for (const DensifyWorkspace::RelationLane& lane : ws_->rel_lanes) {
    int64_t lane_coh = 0;
    int64_t lane_ts = 0;
    LaneSums(lane, ActiveList(lane.act_a, lane.a),
             ActiveList(lane.act_b, lane.b), &lane_coh, &lane_ts);
    coh += lane_coh;
    ts += lane_ts;
  }
  return total + LaneWeightOf(coh, ts);
}

double DensifyEvaluator::Contribution(EdgeId e) const {
  DensifyWorkspace& ws = *ws_;
  const GraphEdge& edge = graph_->edge(e);
  QKB_CHECK(edge.active);
  SyncActiveLists();

  // Each changed mention's list with `e` off, split into the indices that
  // stay (A') and those that drop out (A \ A'); A' is a subset of A. The
  // noun phrase of a means edge loses exactly the slot of `e`; a pronoun
  // keeps an entity iff a support pair avoiding `e` is active.
  ChangedMentionsInto(e, &ws.sources);
  ws.deltas.clear();
  ws.delta_pool.clear();
  for (NodeId s : ws.sources) {
    const Span<uint32_t> list = ActiveList(ActiveOffset(s), s);
    const size_t id = static_cast<size_t>(s);
    const bool own_np = edge.kind == EdgeKind::kMeans && s == edge.a;
    auto stays = [&](uint32_t i) {
      if (own_np) return ws.np_univ[ws.np_univ_off[id] + i].edge != e;
      const DensifyWorkspace::PronounCandidate& c =
          ws.pro_univ[ws.pro_univ_off[id] + i];
      for (uint32_t k = c.pair_begin; k < c.pair_end; ++k) {
        const DensifyWorkspace::SupportPair& pair = ws.pro_pairs[k];
        if (pair.same_as != e && pair.means != e &&
            graph_->edge(pair.same_as).active &&
            graph_->edge(pair.means).active) {
          return true;
        }
      }
      return false;
    };
    // Kept fills the slice from the front, removed from the back (in
    // reverse; integer sums do not care).
    const uint32_t begin = static_cast<uint32_t>(ws.delta_pool.size());
    const uint32_t end = begin + static_cast<uint32_t>(list.size());
    ws.delta_pool.resize(end);
    uint32_t front = begin;
    uint32_t back = end;
    for (uint32_t i : list) ws.delta_pool[stays(i) ? front++ : --back] = i;
    ws.deltas.push_back({begin, front - begin, front, end - front});
  }

  // One side of a lane: committed list A, kept A' and removed A \ A'.
  struct Side {
    Span<uint32_t> all, kept, removed;
  };
  auto side_of = [&](NodeId n, uint32_t offset) {
    const Span<uint32_t> all = ActiveList(offset, n);
    for (size_t k = 0; k < ws.sources.size(); ++k) {
      if (ws.sources[k] != n) continue;
      const DensifyWorkspace::SourceDelta& d = ws.deltas[k];
      return Side{all, {ws.delta_pool.data() + d.kept_off, d.kept_len},
                  {ws.delta_pool.data() + d.removed_off, d.removed_len}};
    }
    return Side{all, all, {}};
  };

  int64_t dcoh = 0;
  int64_t dts = 0;
  for (NodeId s : ws.sources) {
    const size_t id = static_cast<size_t>(s);
    for (uint32_t k = ws.node_lanes_off[id]; k < ws.node_lanes_off[id + 1];
         ++k) {
      const DensifyWorkspace::RelationLane& lane = ws.rel_lanes[ws.node_lanes[k]];
      if (!graph_->edge(lane.edge).active) continue;
      const Side a = side_of(lane.a, lane.act_a);
      const Side b = side_of(lane.b, lane.act_b);
      if (a.removed.empty() && b.removed.empty()) continue;
      // W(A, B) - W(A', B') = W(A \ A', B) + W(A', B \ B').
      const int64_t* coh = ws.coh_pool.data() + lane.coh_off;
      dcoh += BlockSum(coh, lane.ub_len, a.removed, b.all) +
              BlockSum(coh, lane.ub_len, a.kept, b.removed);
      const bool a_to_literal = lane.lit_a && a.kept.empty() && !a.all.empty();
      const bool b_to_literal = lane.lit_b && b.kept.empty() && !b.all.empty();
      if (a_to_literal || b_to_literal) {
        // A side empties into its literal slot, which is not a subset of
        // the rows it had: difference the two full type-signature blocks.
        int64_t unused = 0;
        int64_t before = 0;
        int64_t after = 0;
        LaneSums(lane, a.all, b.all, &unused, &before);
        LaneSums(lane, a.kept, b.kept, &unused, &after);
        dts += before - after;
      } else {
        const int64_t* ts = ws.ts_pool.data() + lane.ts_off;
        const size_t stride = static_cast<size_t>(lane.ub_len) + 1;
        dts += BlockSum(ts, stride, a.removed,
                        TsSide(b.all, lane.lit_b, &lane.ub_len)) +
               BlockSum(ts, stride, TsSide(a.kept, lane.lit_a, &lane.ua_len),
                        b.removed);
      }
    }
  }
  return ws.mw_lane[static_cast<size_t>(e)] + LaneWeightOf(dcoh, dts);
}

void DensifyEvaluator::ChangedMentionsInto(EdgeId e,
                                           std::vector<NodeId>* out) const {
  out->clear();
  const GraphEdge& edge = graph_->edge(e);
  if (edge.kind != EdgeKind::kMeans) {
    out->push_back(
        graph_->node(edge.a).kind == NodeKind::kPronoun ? edge.a : edge.b);
    return;
  }
  const size_t mention = static_cast<size_t>(edge.a);
  out->push_back(edge.a);
  for (uint32_t k = ws_->np_links_off[mention];
       k < ws_->np_links_off[mention + 1]; ++k) {
    const DensifyWorkspace::PronounLink& link = ws_->np_links[k];
    if (!graph_->edge(link.same_as).active) continue;
    if (std::find(out->begin(), out->end(), link.pronoun) == out->end()) {
      out->push_back(link.pronoun);
    }
  }
}

void DensifyEvaluator::Preprocess() {
  IntersectSameAsClusters();
  ApplyGenderConstraint();
}

void DensifyEvaluator::ActiveEntitiesOfNp(NodeId np,
                                          std::vector<EntityId>* out) const {
  const size_t id = static_cast<size_t>(np);
  for (uint32_t i = ws_->np_univ_off[id]; i < ws_->np_univ_off[id + 1]; ++i) {
    const DensifyWorkspace::MeansCandidate& c = ws_->np_univ[i];
    if (graph_->edge(c.edge).active) out->push_back(c.entity);
  }
}

void DensifyEvaluator::IntersectSameAsClusters() {
  DensifyWorkspace& ws = *ws_;
  auto nps = graph_->NodesOfKind(NodeKind::kNounPhrase);
  ++ws.visit_epoch;
  const uint32_t epoch = ws.visit_epoch;
  for (NodeId start : nps) {
    if (ws.visit_mark[static_cast<size_t>(start)] == epoch) continue;
    ws.component.clear();
    ws.dfs_stack.clear();
    ws.dfs_stack.push_back(start);
    ws.visit_mark[static_cast<size_t>(start)] = epoch;
    while (!ws.dfs_stack.empty()) {
      const NodeId n = ws.dfs_stack.back();
      ws.dfs_stack.pop_back();
      ws.component.push_back(n);
      for (EdgeId se : graph_->IncidentEdges(n)) {
        const GraphEdge& s = graph_->edge(se);
        if (!s.active || s.kind != EdgeKind::kSameAs) continue;
        const NodeId other = s.a == n ? s.b : s.a;
        if (graph_->node(other).kind != NodeKind::kNounPhrase) continue;
        if (ws.visit_mark[static_cast<size_t>(other)] != epoch) {
          ws.visit_mark[static_cast<size_t>(other)] = epoch;
          ws.dfs_stack.push_back(other);
        }
      }
    }
    if (ws.component.size() < 2) continue;
    // Sorted-unique flat vectors stand in for the legacy std::sets; the
    // set_intersection chain over them computes the identical result.
    ws.intersection.clear();
    bool first = true;
    for (NodeId n : ws.component) {
      ws.ents.clear();
      ActiveEntitiesOfNp(n, &ws.ents);
      if (ws.ents.empty()) continue;  // out-of-KB member does not constrain
      std::sort(ws.ents.begin(), ws.ents.end());
      ws.ents.erase(std::unique(ws.ents.begin(), ws.ents.end()),
                    ws.ents.end());
      if (first) {
        ws.intersection.assign(ws.ents.begin(), ws.ents.end());
        first = false;
      } else {
        ws.inter_tmp.clear();
        std::set_intersection(ws.intersection.begin(), ws.intersection.end(),
                              ws.ents.begin(), ws.ents.end(),
                              std::back_inserter(ws.inter_tmp));
        ws.intersection.swap(ws.inter_tmp);
      }
    }
    if (first || ws.intersection.empty()) continue;
    for (NodeId n : ws.component) {
      const size_t id = static_cast<size_t>(n);
      for (uint32_t i = ws.np_univ_off[id]; i < ws.np_univ_off[id + 1]; ++i) {
        const DensifyWorkspace::MeansCandidate& cand = ws.np_univ[i];
        if (!graph_->edge(cand.edge).active) continue;
        if (!std::binary_search(ws.intersection.begin(), ws.intersection.end(),
                                cand.entity)) {
          graph_->SetEdgeActive(cand.edge, false);
        }
      }
    }
  }
}

void DensifyEvaluator::ApplyGenderConstraint() {
  DensifyWorkspace& ws = *ws_;
  for (NodeId p : graph_->NodesOfKind(NodeKind::kPronoun)) {
    const GraphNode& pro = graph_->node(p);
    if (pro.gender == Gender::kUnknown) continue;
    for (EdgeId se : graph_->IncidentEdges(p)) {
      const GraphEdge& s = graph_->edge(se);
      if (!s.active || s.kind != EdgeKind::kSameAs) continue;
      const NodeId np = s.a == p ? s.b : s.a;
      if (graph_->node(np).kind != NodeKind::kNounPhrase) continue;
      ws.ents.clear();
      ActiveEntitiesOfNp(np, &ws.ents);
      if (ws.ents.empty()) continue;  // out-of-KB antecedent: keep
      bool any_compatible = false;
      for (EntityId c : ws.ents) {
        if (!GenderConflict(pro, c)) any_compatible = true;
      }
      if (!any_compatible) graph_->SetEdgeActive(se, false);
    }
  }
}

std::vector<EdgeId> DensifyEvaluator::RemovableEdges() const {
  std::vector<EdgeId> out;
  RemovableEdgesInto(&out);
  return out;
}

void DensifyEvaluator::RemovableEdgesInto(std::vector<EdgeId>* out) const {
  out->clear();
  const DensifyWorkspace& ws = *ws_;
  // The O(1) active-degree counters answer the >= 2 test without
  // materializing the incident-edge lists of unremovable mentions.
  for (NodeId np : graph_->NodesOfKind(NodeKind::kNounPhrase)) {
    if (graph_->ActiveMeansCount(np) < 2) continue;
    const size_t id = static_cast<size_t>(np);
    for (uint32_t i = ws.np_univ_off[id]; i < ws.np_univ_off[id + 1]; ++i) {
      const EdgeId e = ws.np_univ[i].edge;
      if (graph_->edge(e).active) out->push_back(e);
    }
  }
  for (NodeId p : graph_->NodesOfKind(NodeKind::kPronoun)) {
    if (graph_->ActiveSameAsNpCount(p) < 2) continue;
    for (EdgeId se : graph_->IncidentEdges(p)) {
      const GraphEdge& s = graph_->edge(se);
      if (!s.active || s.kind != EdgeKind::kSameAs) continue;
      const NodeId other = s.a == p ? s.b : s.a;
      if (graph_->node(other).kind == NodeKind::kNounPhrase) {
        out->push_back(se);
      }
    }
  }
}

bool DensifyEvaluator::IsRemovable(EdgeId e) const {
  const GraphEdge& edge = graph_->edge(e);
  if (!edge.active) return false;
  if (edge.kind == EdgeKind::kMeans) {
    return graph_->ActiveMeansCount(edge.a) >= 2;
  }
  NodeId p = graph_->node(edge.a).kind == NodeKind::kPronoun ? edge.a : edge.b;
  return graph_->ActiveSameAsNpCount(p) >= 2;
}

void DensifyEvaluator::SnapshotOriginalMeans() {
  ws_->orig_active.assign(graph_->edge_count(), 0);
  for (EdgeId m : ws_->means_edges) {
    ws_->orig_active[static_cast<size_t>(m)] =
        graph_->edge(m).active ? 1 : 0;
  }
}

void DensifyEvaluator::ComputeConfidencesInto(
    std::vector<DensifyResult::Assignment>* out) {
  out->clear();
  DensifyWorkspace& ws = *ws_;
  const size_t n = graph_->node_count();
  // Ascending node order over every mention with originally-active means
  // edges: the same set the legacy hash-map grouping produced, already in
  // the final (mention-sorted) output order.
  for (size_t np = 0; np < n; ++np) {
    const uint32_t begin = ws.np_univ_off[np];
    const uint32_t end = ws.np_univ_off[np + 1];
    if (begin == end) continue;
    int orig_count = 0;
    for (uint32_t i = begin; i < end; ++i) {
      if (ws.orig_active[static_cast<size_t>(ws.np_univ[i].edge)]) {
        ++orig_count;
      }
    }
    if (orig_count == 0) continue;
    EdgeId chosen = -1;
    EntityId chosen_entity = kInvalidEntity;
    for (uint32_t i = begin; i < end; ++i) {
      const DensifyWorkspace::MeansCandidate& c = ws.np_univ[i];
      if (graph_->edge(c.edge).active) {
        chosen = c.edge;
        chosen_entity = c.entity;
        break;
      }
    }
    if (chosen < 0) continue;  // out-of-KB mention

    double chosen_c = std::max(Contribution(chosen), 0.0);
    double denom = 0.0;
    for (uint32_t i = begin; i < end; ++i) {
      const DensifyWorkspace::MeansCandidate& c = ws.np_univ[i];
      if (!ws.orig_active[static_cast<size_t>(c.edge)]) continue;
      if (c.edge == chosen) {
        denom += chosen_c;
        continue;
      }
      SetActive(chosen, false);
      SetActive(c.edge, true);
      denom += std::max(Contribution(c.edge), 0.0);
      SetActive(c.edge, false);
      SetActive(chosen, true);
    }

    DensifyResult::Assignment a;
    a.mention = static_cast<NodeId>(np);
    a.entity = chosen_entity;
    a.weight = ws.mw_lane[static_cast<size_t>(chosen)];
    const std::vector<EntityId>* exact = ws.exact[np];
    a.exact_alias =
        exact != nullptr &&
        std::find(exact->begin(), exact->end(), chosen_entity) != exact->end();
    if (chosen_c > 1e-12) {
      a.confidence = denom > 0.0 ? chosen_c / denom : 1.0;
    } else {
      // No evidence at all. An exact dictionary alias still licenses the
      // link (uniform over alternatives); a loose partial-name match is a
      // dictionary artifact and gets rejected downstream.
      a.confidence =
          a.exact_alias ? 1.0 / static_cast<double>(orig_count) : 0.0;
    }
    out->push_back(a);
  }
}

std::vector<std::pair<NodeId, NodeId>> ExtractPronounAntecedents(
    const SemanticGraph& graph) {
  std::vector<std::pair<NodeId, NodeId>> out;
  ExtractPronounAntecedentsInto(graph, &out);
  return out;
}

void ExtractPronounAntecedentsInto(
    const SemanticGraph& graph, std::vector<std::pair<NodeId, NodeId>>* out) {
  out->clear();
  // Same traversal as ActiveSameAs (incident edges ascending) without
  // materializing the pair list — this runs inside the allocation-free
  // steady state of GreedyDensifier::Densify.
  for (NodeId p : graph.NodesOfKind(NodeKind::kPronoun)) {
    for (EdgeId e : graph.IncidentEdges(p)) {
      const GraphEdge& edge = graph.edge(e);
      if (!edge.active || edge.kind != EdgeKind::kSameAs) continue;
      const NodeId np = edge.a == p ? edge.b : edge.a;
      if (graph.node(np).kind == NodeKind::kNounPhrase) {
        out->emplace_back(p, np);
        break;
      }
    }
  }
}

}  // namespace qkbfly
