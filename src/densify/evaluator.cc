#include "densify/evaluator.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace qkbfly {

namespace {

// Side keys of the type-signature memo: an entity's type-set id, or a
// literal's TypeId tagged with the high bit. Both stay below the tag: a
// repository has far fewer than 2^31 type sets, a type system fewer types.
constexpr uint64_t kLiteralBit = 0x80000000ull;

uint64_t LiteralKey(TypeId t) { return kLiteralBit | t; }

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

void BuildMeansLane(const SemanticGraph& graph, const AnnotatedDocument& doc,
                    const BackgroundStats& stats,
                    const EntityRepository& repository,
                    const DensifyParams& params, DensifyWorkspace* ws) {
  ws->means_edges.clear();
  ws->relation_edges.clear();
  const size_t edges = graph.edge_count();
  for (size_t e = 0; e < edges; ++e) {
    switch (graph.edge(static_cast<EdgeId>(e)).kind) {
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
  BuildMentionData(graph, doc, repository, ws);

  // w(n_i, e_ij) = a1 * prior + a2 * sim, dampened 0.3x for loose
  // (partial-name) candidates — the exact MeansWeight formula, one value per
  // means edge. Mention contexts are shared per sentence (they are a pure
  // function of the sentence tokens).
  ws->mw_lane.assign(edges, 0.0);
  for (EdgeId m : ws->means_edges) {
    const GraphEdge& edge = graph.edge(m);
    const size_t np = static_cast<size_t>(edge.a);
    const EntityId entity = graph.node(edge.b).entity;
    double prior = stats.PriorLowered(ws->lowered[np], entity);
    double sim = 0.0;
    if (ws->has_context[np]) {
      const size_t s = static_cast<size_t>(graph.node(edge.a).sentence);
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
  BuildMeansLane(*graph_, doc, *stats_, *repository_, params_, ws_);
  BuildTypes();
  BuildUniverses();
  BuildRelationLanes();
}

void DensifyEvaluator::BuildTypes() {
  DensifyWorkspace& ws = *ws_;
  const size_t n = graph_->node_count();
  ws.literal_type.assign(n, 0);
  ws.has_literal_type.assign(n, 0);
  ws.visit_mark.assign(n, 0);
  ws.visit_epoch = 0;

  // Entity nodes need nothing here: their type lists are the repository's
  // interned type closures.
  const TypeSystem& ts = repository_->type_system();
  for (size_t i = 0; i < n; ++i) {
    const GraphNode& node = graph_->node(static_cast<NodeId>(i));
    if (node.kind == NodeKind::kEntity) continue;
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
  ws.means_slot.assign(graph_->edge_count(), 0);
  for (EdgeId m : ws.means_edges) {
    const GraphEdge& e = graph_->edge(m);
    const size_t np = static_cast<size_t>(e.a);
    ws.means_slot[static_cast<size_t>(m)] = ws.cursor[np] - ws.np_univ_off[np];
    ws.np_univ[ws.cursor[np]++] = {m, e.b, graph_->node(e.b).entity};
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

  // Reverse support index: a counting sort of every support pair under both
  // of its edges. Candidates are visited in pro_univ order, so each edge's
  // entries come out ascending by candidate.
  const size_t edges = graph_->edge_count();
  auto for_each_pair = [&](auto&& f) {
    for (NodeId p : graph_->NodesOfKind(NodeKind::kPronoun)) {
      const size_t id = static_cast<size_t>(p);
      for (uint32_t c = ws.pro_univ_off[id]; c < ws.pro_univ_off[id + 1]; ++c) {
        for (uint32_t k = ws.pro_univ[c].pair_begin; k < ws.pro_univ[c].pair_end;
             ++k) {
          f(p, c, ws.pro_pairs[k]);
        }
      }
    }
  };
  ws.support_off.assign(edges + 1, 0);
  for_each_pair([&ws](NodeId, uint32_t,
                      const DensifyWorkspace::SupportPair& pair) {
    ++ws.support_off[static_cast<size_t>(pair.same_as) + 1];
    ++ws.support_off[static_cast<size_t>(pair.means) + 1];
  });
  for (size_t e = 0; e < edges; ++e) ws.support_off[e + 1] += ws.support_off[e];
  ws.cursor.assign(ws.support_off.begin(), ws.support_off.end() - 1);
  ws.support.resize(ws.support_off[edges]);
  for_each_pair([&ws](NodeId p, uint32_t c,
                      const DensifyWorkspace::SupportPair& pair) {
    ws.support[ws.cursor[static_cast<size_t>(pair.same_as)]++] = {p, c,
                                                                 pair.means};
    ws.support[ws.cursor[static_cast<size_t>(pair.means)]++] = {p, c,
                                                               pair.same_as};
  });

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
    uint64_t key_a, uint64_t key_b) const {
  const uint64_t pair_key = (key_a << 32) | key_b;
  FlatPairCache& cache = ws_->ts_caches[pattern_id];
  if (const double* hit = cache.Lookup(pair_key)) return *hit;
  // The type list a side key stands for: the one literal type, or a type
  // set's closure.
  TypeId literal[2];
  auto types_of = [&](uint64_t key, TypeId* slot) -> std::span<const TypeId> {
    if (key & kLiteralBit) {
      *slot = static_cast<TypeId>(key & ~kLiteralBit);
      return {slot, 1};
    }
    return repository_->TypeClosure(static_cast<uint32_t>(key));
  };
  const double value = stats_->TypeSignatureSum(
      table, types_of(key_a, &literal[0]), types_of(key_b, &literal[1]));
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
  // Type-signature side key of an entity: its type-set id.
  auto entity_key = [this](EntityId e) -> uint64_t {
    return repository_->Get(e).type_set;
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

    // Coherence matrix: |Ua| x |Ub|, one WeightedOverlapRow per row (the
    // Coherence(ea, eb) of every cell, bit for bit).
    lane.coh_off = static_cast<uint32_t>(ws.coh_pool.size());
    ws.col_contexts.resize(sb.len);
    for (uint32_t j = 0; j < sb.len; ++j) {
      ws.col_contexts[j] = &stats_->EntityContext(EntityAt(ws, sb, j));
    }
    ws.coh_row.resize(sb.len);
    int64_t max_coh = 0;
    for (uint32_t i = 0; i < sa.len; ++i) {
      WeightedOverlapRow(stats_->EntityContext(EntityAt(ws, sa, i)),
                         {ws.col_contexts.data(), sb.len}, &ws.overlap_dense,
                         ws.coh_row.data());
      for (uint32_t j = 0; j < sb.len; ++j) {
        const int64_t entry =
            to_fixed(ws.factor_a[i] * ws.factor_b[j] * ws.coh_row[j]);
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
    ws.ts_key_b.resize(sb.len + 1);
    for (uint32_t j = 0; j < sb.len; ++j) {
      ws.ts_key_b[j] = entity_key(EntityAt(ws, sb, j));
    }
    ws.ts_key_b[sb.len] =
        LiteralKey(ws.literal_type[static_cast<size_t>(e.b)]);
    int64_t max_ts = 0;
    for (uint32_t i = 0; i <= sa.len; ++i) {
      const bool row_lit = (i == sa.len);
      if (row_lit && !lane.lit_a) {
        ws.ts_pool.insert(ws.ts_pool.end(), sb.len + 1, 0);
        continue;
      }
      const uint64_t ka =
          row_lit ? LiteralKey(ws.literal_type[static_cast<size_t>(e.a)])
                  : entity_key(EntityAt(ws, sa, i));
      const double tfa = row_lit ? 1.0 : ws.factor_a[i];
      for (uint32_t j = 0; j <= sb.len; ++j) {
        const bool col_lit = (j == sb.len);
        if (col_lit && !lane.lit_b) {
          ws.ts_pool.push_back(0);
          continue;
        }
        const double tfb = col_lit ? 1.0 : ws.factor_b[j];
        const double value = TsPairValue(table, pid, ka, ws.ts_key_b[j]);
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
  ws.pro_live.resize(ws.pro_univ.size());
  RebuildActiveLists();
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
      if (ws.pro_live[i] != 0) out[len++] = i - begin;
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

uint32_t DensifyEvaluator::CountLiveSupport(uint32_t cand) const {
  const DensifyWorkspace::PronounCandidate& c = ws_->pro_univ[cand];
  uint32_t live = 0;
  for (uint32_t k = c.pair_begin; k < c.pair_end; ++k) {
    const DensifyWorkspace::SupportPair& pair = ws_->pro_pairs[k];
    if (graph_->edge(pair.same_as).active && graph_->edge(pair.means).active) {
      ++live;
    }
  }
  return live;
}

void DensifyEvaluator::RebuildActiveLists() const {
  for (uint32_t c = 0; c < ws_->pro_univ.size(); ++c) {
    ws_->pro_live[c] = CountLiveSupport(c);
  }
  // Only mentions have lists; every other node's length stays 0.
  for (NodeKind kind : {NodeKind::kNounPhrase, NodeKind::kPronoun}) {
    for (NodeId n : graph_->NodesOfKind(kind)) RefreshActiveList(n);
  }
  ws_->active_mutations = graph_->mutation_count();
}

void DensifyEvaluator::SyncActiveLists() const {
  if (ws_->active_mutations != graph_->mutation_count()) RebuildActiveLists();
}

void DensifyEvaluator::SetActive(EdgeId e, bool active) {
  DensifyWorkspace& ws = *ws_;
  SyncActiveLists();
  // A means edge changes the same mentions whether it goes off or on.
  ChangedMentionsInto(e, &ws.sources);
  if (graph_->edge(e).active != active) {
    // A support pair of `e` turns with it iff its partner edge is active.
    for (uint32_t k = ws.support_off[static_cast<size_t>(e)];
         k < ws.support_off[static_cast<size_t>(e) + 1]; ++k) {
      const DensifyWorkspace::SupportRef& ref = ws.support[k];
      if (!graph_->edge(ref.partner).active) continue;
      if (active) {
        ++ws.pro_live[ref.cand];
      } else {
        --ws.pro_live[ref.cand];
      }
    }
    graph_->SetEdgeActive(e, active);
  }
  for (NodeId s : ws.sources) RefreshActiveList(s);
  ws.active_mutations = graph_->mutation_count();
}

const std::vector<NodeId>& DensifyEvaluator::Deactivate(EdgeId e) {
  SetActive(e, false);
  return ws_->sources;  // SetActive's ChangedMentionsInto(e)
}

namespace {

// Sum of m[i * stride + j] over i in rows, j in cols.
int64_t BlockSum(const int64_t* m, size_t stride,
                 std::span<const uint32_t> rows,
                 std::span<const uint32_t> cols) {
  int64_t sum = 0;
  if (cols.empty()) return sum;
  for (uint32_t i : rows) {
    const int64_t* row = m + static_cast<size_t>(i) * stride;
    for (uint32_t j : cols) sum += row[j];
  }
  return sum;
}

// W(P_a, P_b) - W(P_a \ M_a, P_b \ M_b) for removed sets M_a within P_a
// and M_b within P_b: W(M_a, P_b) + W(P_a, M_b) - W(M_a, M_b), three block
// sums over removed rows and columns only.
int64_t BlockDelta(const int64_t* m, size_t stride,
                   std::span<const uint32_t> rows,
                   std::span<const uint32_t> removed_rows,
                   std::span<const uint32_t> cols,
                   std::span<const uint32_t> removed_cols) {
  return BlockSum(m, stride, removed_rows, cols) +
         BlockSum(m, stride, rows, removed_cols) -
         BlockSum(m, stride, removed_rows, removed_cols);
}

// Rows (columns) a type-signature gather reads for one side: its active
// list, or the literal slot when the list is empty and the side has a
// literal type.
std::span<const uint32_t> TsSide(std::span<const uint32_t> list,
                                 bool literal, const uint32_t* literal_slot) {
  if (list.empty() && literal) return {literal_slot, 1};
  return list;
}

}  // namespace

void DensifyEvaluator::LaneSums(const DensifyWorkspace::RelationLane& lane,
                                std::span<const uint32_t> rows,
                                std::span<const uint32_t> cols,
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

  // The slots each changed mention loses with `e` off (A \ A'). The noun
  // phrase of a means edge loses exactly the slot of `e` (a literal one has
  // no list to lose it from); a pronoun loses a candidate iff every one of
  // its live support pairs contains `e`, i.e. iff the pairs of `e` with an
  // active partner number its live count.
  ChangedMentionsInto(e, &ws.sources);
  ws.removed.clear();
  ws.removed_pool.clear();
  if (edge.kind == EdgeKind::kMeans && !graph_->node(edge.a).is_literal) {
    ws.removed.push_back({edge.a, 0, 1});
    ws.removed_pool.push_back(ws.means_slot[static_cast<size_t>(e)]);
  }
  const uint32_t end = ws.support_off[static_cast<size_t>(e) + 1];
  for (uint32_t k = ws.support_off[static_cast<size_t>(e)]; k < end;) {
    const DensifyWorkspace::SupportRef& ref = ws.support[k];
    uint32_t live_with_e = 0;
    for (; k < end && ws.support[k].cand == ref.cand; ++k) {
      if (graph_->edge(ws.support[k].partner).active) ++live_with_e;
    }
    if (live_with_e == 0 || live_with_e != ws.pro_live[ref.cand]) continue;
    if (ws.removed.empty() || ws.removed.back().node != ref.pronoun) {
      ws.removed.push_back(
          {ref.pronoun, static_cast<uint32_t>(ws.removed_pool.size()), 0});
    }
    ws.removed_pool.push_back(
        ref.cand - ws.pro_univ_off[static_cast<size_t>(ref.pronoun)]);
    ++ws.removed.back().len;
  }
  auto removed_of = [&ws](NodeId n) -> std::span<const uint32_t> {
    for (const DensifyWorkspace::RemovedSlots& r : ws.removed) {
      if (r.node == n) return {ws.removed_pool.data() + r.off, r.len};
    }
    return {};
  };

  // Every active lane at a changed mention (a lane at two of them counts
  // twice) moves by W(A, B) - W(A', B'), summed over its removed slots.
  int64_t dcoh = 0;
  int64_t dts = 0;
  for (NodeId s : ws.sources) {
    const size_t id = static_cast<size_t>(s);
    for (uint32_t k = ws.node_lanes_off[id]; k < ws.node_lanes_off[id + 1];
         ++k) {
      const DensifyWorkspace::RelationLane& lane = ws.rel_lanes[ws.node_lanes[k]];
      if (!graph_->edge(lane.edge).active) continue;
      const std::span<const uint32_t> ra = removed_of(lane.a);
      const std::span<const uint32_t> rb = removed_of(lane.b);
      if (ra.empty() && rb.empty()) continue;
      const std::span<const uint32_t> a = ActiveList(lane.act_a, lane.a);
      const std::span<const uint32_t> b = ActiveList(lane.act_b, lane.b);
      dcoh += BlockDelta(ws.coh_pool.data() + lane.coh_off, lane.ub_len, a, ra,
                         b, rb);

      const int64_t* ts = ws.ts_pool.data() + lane.ts_off;
      const size_t stride = static_cast<size_t>(lane.ub_len) + 1;
      std::span<const uint32_t> pa = TsSide(a, lane.lit_a, &lane.ua_len);
      std::span<const uint32_t> pb = TsSide(b, lane.lit_b, &lane.ub_len);
      std::span<const uint32_t> ma = ra;
      std::span<const uint32_t> mb = rb;
      // A side that loses every slot falls back to its literal slot, which
      // is not among the rows it had: difference the full blocks up to that
      // switch, then remove the other side's slots from the literal block.
      const bool a_to_literal = lane.lit_a && !a.empty() && ra.size() == a.size();
      const bool b_to_literal = lane.lit_b && !b.empty() && rb.size() == b.size();
      if (a_to_literal || b_to_literal) {
        const int64_t before = BlockSum(ts, stride, pa, pb);
        if (a_to_literal) {
          pa = {&lane.ua_len, 1};
          ma = {};
        }
        if (b_to_literal) {
          pb = {&lane.ub_len, 1};
          mb = {};
        }
        dts += before - BlockSum(ts, stride, pa, pb);
      }
      dts += BlockDelta(ts, stride, pa, ma, pb, mb);
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

std::string DensifyEvaluator::CheckWorkspaceInvariants() const {
  const DensifyWorkspace& ws = *ws_;
  if (ws.active_mutations != graph_->mutation_count()) return "";
  for (uint32_t c = 0; c < ws.pro_univ.size(); ++c) {
    const uint32_t live = CountLiveSupport(c);
    if (ws.pro_live[c] != live) {
      return "pronoun candidate " + std::to_string(c) + " has live count " +
             std::to_string(ws.pro_live[c]) + ", the flags " +
             std::to_string(live);
    }
  }
  std::vector<uint32_t> expected;
  for (size_t i = 0; i < graph_->node_count(); ++i) {
    const NodeId n = static_cast<NodeId>(i);
    const GraphNode& node = graph_->node(n);
    expected.clear();
    if (node.kind == NodeKind::kPronoun) {
      for (uint32_t c = ws.pro_univ_off[i]; c < ws.pro_univ_off[i + 1]; ++c) {
        if (CountLiveSupport(c) != 0) expected.push_back(c - ws.pro_univ_off[i]);
      }
    } else if (node.kind == NodeKind::kNounPhrase && !node.is_literal) {
      for (uint32_t k = ws.np_univ_off[i]; k < ws.np_univ_off[i + 1]; ++k) {
        if (graph_->edge(ws.np_univ[k].edge).active) {
          expected.push_back(k - ws.np_univ_off[i]);
        }
      }
    }
    const std::span<const uint32_t> got = ActiveList(ActiveOffset(n), n);
    if (!std::equal(got.begin(), got.end(), expected.begin(), expected.end())) {
      return "committed active list of node " + std::to_string(i) +
             " differs from the flags";
    }
  }
  return "";
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
