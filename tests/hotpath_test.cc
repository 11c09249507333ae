// Tests for the single-core hot-path rewrite: the interned-symbol table, the
// trie-backed gazetteer (against a linear reference), LooseCandidates
// dedup/ordering, the heap-driven densifier (against a naive greedy
// reference and its determinism guarantees), the evaluator's committed
// active lists (against freshly constructed evaluators) and its fixed-point
// contributions (against a from-scratch integer brute force).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "densify/greedy_densifier.h"
#include "graph/graph_builder.h"
#include "kb/entity_repository.h"
#include "nlp/pipeline.h"
#include "parser/malt_parser.h"
#include "synth/dataset.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/symbol_table.h"

namespace qkbfly {
namespace {

// ---------------------------------------------------------------------------
// Symbol table
// ---------------------------------------------------------------------------

TEST(SymbolTableTest, InternIsStableAndLookupAgrees) {
  TokenSymbols& symbols = TokenSymbols::Get();
  Symbol a = symbols.Intern("hotpath-test-alpha");
  Symbol b = symbols.Intern("hotpath-test-beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(symbols.Intern("hotpath-test-alpha"), a);
  EXPECT_EQ(symbols.Lookup("hotpath-test-alpha"), a);
  EXPECT_EQ(symbols.Lookup("hotpath-test-beta"), b);
}

TEST(SymbolTableTest, LookupMissReturnsNoSymbol) {
  EXPECT_EQ(TokenSymbols::Get().Lookup("hotpath-test-never-interned-q7x"),
            kNoSymbol);
}

TEST(SymbolTableTest, CaseSensitiveKeys) {
  // The pipeline only interns lowercased text; the table itself must not
  // conflate distinct byte strings.
  TokenSymbols& symbols = TokenSymbols::Get();
  EXPECT_NE(symbols.Intern("hotpath-test-Case"),
            symbols.Intern("hotpath-test-case"));
}

TEST(SymbolTableTest, EnsureSymbolsBackfillsHandBuiltTokens) {
  std::vector<Token> tokens(2);
  tokens[0].text = "Backfill";
  tokens[1].text = "Me";
  EnsureSymbols(&tokens);
  EXPECT_EQ(tokens[0].lower, "backfill");
  EXPECT_EQ(tokens[0].sym, TokenSymbols::Get().Lookup("backfill"));
  EXPECT_NE(tokens[1].sym, kNoSymbol);
  // Idempotent: a second pass leaves the symbols untouched.
  Symbol before = tokens[0].sym;
  EnsureSymbols(&tokens);
  EXPECT_EQ(tokens[0].sym, before);
}

// ---------------------------------------------------------------------------
// Trie gazetteer edge cases (each checked against the linear reference)
// ---------------------------------------------------------------------------

// Linear reference gazetteer: grows the lowercased candidate alias one token
// at a time and probes the alias index at every length, keeping the longest
// hit and the coarse type of its first entity. No length cap is needed: an
// alias longer than every alias in the repository simply never hits.
int LinearLongestMatch(const EntityRepository& repo,
                       const std::vector<Token>& tokens, int begin,
                       NerType* type) {
  const int n = static_cast<int>(tokens.size());
  if (begin >= n || !IsCapitalized(tokens[static_cast<size_t>(begin)].text)) {
    return 0;
  }
  int best_len = 0;
  NerType best_type = NerType::kNone;
  std::string candidate;
  for (int len = 1; begin + len <= n; ++len) {
    if (len > 1) candidate += ' ';
    const Token& t = tokens[static_cast<size_t>(begin + len - 1)];
    candidate += t.lower.empty() ? Lowercase(t.text) : t.lower;
    const std::vector<EntityId>& hits = repo.CandidatesForAliasLowered(candidate);
    if (!hits.empty()) {
      best_len = len;
      best_type = repo.CoarseTypeOf(hits.front());
    }
  }
  if (best_len > 0 && type != nullptr) *type = best_type;
  return best_len;
}

class GazetteerTrieTest : public ::testing::Test {
 protected:
  GazetteerTrieTest() : types_(TypeSystem::BuildDefault()), repo_(&types_) {
    atlas_ = repo_.AddEntity("Atlas", {}, {*types_.Find("CITY")});
    range_ = repo_.AddEntity("Atlas Mountain Range", {},
                             {*types_.Find("LOCATION")});
    longest_ = repo_.AddEntity("Grand Duchy Of Western Atlas", {},
                               {*types_.Find("COUNTRY")});
    person_ = repo_.AddEntity("Mira Vale", {"Vale"}, {*types_.Find("ACTOR")},
                             Gender::kFemale);
  }

  // Runs both matchers at one position and requires byte-identical results.
  int AgreeingMatch(const std::vector<Token>& tokens, int begin, NerType* type) {
    NerType linear_type = NerType::kNone;
    NerType trie_type = NerType::kNone;
    int linear = LinearLongestMatch(repo_, tokens, begin, &linear_type);
    int trie = repo_.LongestMatchAt(tokens, begin, &trie_type);
    EXPECT_EQ(trie, linear) << "position " << begin;
    EXPECT_EQ(trie_type, linear_type) << "position " << begin;
    if (type != nullptr) *type = trie_type;
    return trie;
  }

  TypeSystem types_;
  EntityRepository repo_;
  Tokenizer tok_;
  EntityId atlas_, range_, longest_, person_;
};

TEST_F(GazetteerTrieTest, AliasEndingAtLastToken) {
  // The longest alias ends exactly at the sentence's final token: the walk
  // must not read past the end, and must still report the full span.
  auto tokens = tok_.Tokenize("They crossed the Atlas Mountain Range");
  NerType type = NerType::kNone;
  int len = AgreeingMatch(tokens, 3, &type);
  EXPECT_EQ(len, 3);
  EXPECT_EQ(type, NerType::kLocation);
}

TEST_F(GazetteerTrieTest, SpanAtMaxAliasTokensBoundary) {
  // "Grand Duchy Of Western Atlas" is the longest alias in the repository
  // (5 tokens == max_alias_tokens_): a match of exactly that length must be
  // found even when more tokens follow, and the walk must stop extending at
  // the boundary rather than probing 6-token candidates.
  auto tokens =
      tok_.Tokenize("The Grand Duchy Of Western Atlas Mountain treaty held");
  NerType type = NerType::kNone;
  int len = AgreeingMatch(tokens, 1, &type);
  EXPECT_EQ(len, 5);
  EXPECT_EQ(type, NerType::kLocation);
}

TEST_F(GazetteerTrieTest, CapitalizedNonAliasWordDoesNotMatch) {
  auto tokens = tok_.Tokenize("Zanzibar is far away");
  EXPECT_EQ(AgreeingMatch(tokens, 0, nullptr), 0);
  // A capitalized word that is a *prefix word* of an alias but not an alias
  // itself ("Grand") must not match either: the trie node exists but is not
  // terminal.
  tokens = tok_.Tokenize("Grand plans were made");
  EXPECT_EQ(AgreeingMatch(tokens, 0, nullptr), 0);
}

TEST_F(GazetteerTrieTest, LowercaseFirstTokenRejected) {
  auto tokens = tok_.Tokenize("atlas Mountain Range");
  EXPECT_EQ(AgreeingMatch(tokens, 0, nullptr), 0);
}

TEST_F(GazetteerTrieTest, MultiTokenAliasShadowsShorterPrefix) {
  // "Atlas" alone is a CITY; "Atlas Mountain Range" is a LOCATION. The
  // longest match must win, taking its own terminal type.
  auto tokens = tok_.Tokenize("Atlas Mountain Range spans two countries");
  NerType type = NerType::kNone;
  int len = AgreeingMatch(tokens, 0, &type);
  EXPECT_EQ(len, 3);
  EXPECT_EQ(type, NerType::kLocation);
  // When the continuation breaks off mid-alias ("Atlas Mountain peaks" has
  // no terminal at length 2), the best seen terminal — the 1-token city —
  // must be reported, not zero and not the dead-end prefix.
  tokens = tok_.Tokenize("Atlas Mountain peaks glow");
  len = AgreeingMatch(tokens, 0, &type);
  EXPECT_EQ(len, 1);
  EXPECT_EQ(type, NerType::kLocation);  // coarse type of CITY
}

TEST_F(GazetteerTrieTest, HandBuiltTokensFallBackToLookup) {
  // Tokens that skipped the tokenizer carry no symbols; the trie walk must
  // resolve them via Lookup and still agree with the linear matcher.
  std::vector<Token> tokens(2);
  tokens[0].text = "Mira";
  tokens[1].text = "Vale";
  NerType type = NerType::kNone;
  int len = AgreeingMatch(tokens, 0, &type);
  EXPECT_EQ(len, 2);
  EXPECT_EQ(type, NerType::kPerson);
}

TEST_F(GazetteerTrieTest, AgreementAcrossAllPositions) {
  const char* sentences[] = {
      "Mira Vale visited the Grand Duchy Of Western Atlas in May",
      "Atlas Mountain Range and Atlas share a name",
      "Nothing here matches anything at all",
      "Vale met Vale near Atlas Mountain Range",
  };
  for (const char* s : sentences) {
    auto tokens = tok_.Tokenize(s);
    for (int i = 0; i < static_cast<int>(tokens.size()); ++i) {
      AgreeingMatch(tokens, i, nullptr);
    }
  }
}

// ---------------------------------------------------------------------------
// LooseCandidates dedup / ordering / limit
// ---------------------------------------------------------------------------

class LooseCandidatesTest : public ::testing::Test {
 protected:
  LooseCandidatesTest() : types_(TypeSystem::BuildDefault()), repo_(&types_) {
    // "Kaelen Drax" is an exact alias of drax_full_ AND shares both of its
    // name tokens with other entities, so the exact candidate is re-proposed
    // by the token index — the dedup path under test.
    drax_full_ = repo_.AddEntity("Kaelen Drax", {}, {*types_.Find("ACTOR")});
    kaelen_ = repo_.AddEntity("Kaelen Moor", {}, {*types_.Find("SINGER")});
    drax_ = repo_.AddEntity("Tessa Drax", {}, {*types_.Find("POLITICIAN")});
    drax_corp_ = repo_.AddEntity("Drax Industries", {"Drax"},
                                 {*types_.Find("COMPANY")});
  }

  TypeSystem types_;
  EntityRepository repo_;
  EntityId drax_full_, kaelen_, drax_, drax_corp_;
};

TEST_F(LooseCandidatesTest, ExactAliasFirstAndNoDuplicates) {
  auto out = repo_.LooseCandidates("Kaelen Drax", 16);
  // Exact-alias candidates lead.
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), drax_full_);
  // Every token-sharing entity is proposed exactly once — in particular the
  // exact candidate must not reappear via the "kaelen" or "drax" buckets.
  std::vector<EntityId> sorted = out;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      << "duplicate entity ids in loose candidates";
  for (EntityId e : {kaelen_, drax_, drax_corp_}) {
    EXPECT_TRUE(std::find(out.begin(), out.end(), e) != out.end());
  }
  EXPECT_EQ(out.size(), 4u);
}

TEST_F(LooseCandidatesTest, LimitRespected) {
  auto out = repo_.LooseCandidates("Kaelen Drax", 2);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.front(), drax_full_);
}

TEST_F(LooseCandidatesTest, OrderIsDeterministic) {
  auto first = repo_.LooseCandidates("Kaelen Drax", 16);
  // Second call is served from the memo; third, after an invalidating
  // AddEntity, recomputes from scratch. All must agree on the common prefix.
  auto second = repo_.LooseCandidates("Kaelen Drax", 16);
  EXPECT_EQ(first, second);
  repo_.AddEntity("Unrelated Person", {}, {*types_.Find("ACTOR")});
  auto third = repo_.LooseCandidates("Kaelen Drax", 16);
  EXPECT_EQ(first, third);
}

TEST_F(LooseCandidatesTest, AddEntityInvalidatesCachedResult) {
  // Cache a result, then add an entity sharing its "moor" token: the memo
  // must drop the stale set and recompute it with the newcomer.
  const std::vector<EntityId> before = repo_.LooseCandidates("Brenna Moor", 16);
  EXPECT_EQ(before, std::vector<EntityId>{kaelen_});
  const CacheStats cached = repo_.loose_cache_stats();
  EXPECT_EQ(repo_.LooseCandidates("Brenna Moor", 16), before);
  EXPECT_EQ(repo_.loose_cache_stats().hits, cached.hits + 1);

  EntityId moor = repo_.AddEntity("Ansel Moor", {}, {*types_.Find("ACTOR")});
  const std::vector<EntityId> after = repo_.LooseCandidates("Brenna Moor", 16);
  EXPECT_EQ(repo_.loose_cache_stats().misses, cached.misses + 1);
  EXPECT_EQ(after, (std::vector<EntityId>{kaelen_, moor}));
}

TEST_F(LooseCandidatesTest, NeverInternedTokenProposesNothing) {
  auto out = repo_.LooseCandidates("zzz-not-a-word-anywhere", 8);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Densifier: heap loop vs naive reference, run-to-run, EdgeId tie-breaking
// ---------------------------------------------------------------------------

const SynthDataset& Dataset() {
  static const SynthDataset* ds = [] {
    DatasetConfig config;
    config.wiki_eval_articles = 12;
    return BuildDataset(config).release();
  }();
  return *ds;
}

// The world perfbench measures for seed 4: every default WorldConfig count
// scaled 6x, an article for every eligible entity, a news story for every
// post-snapshot fact. Its documents are denser than the default world's.
const SynthDataset& ScaledDataset() {
  static const SynthDataset* ds = [] {
    constexpr int kScale = 6;
    DatasetConfig config;
    config.seed = 4;
    WorldConfig& w = config.world;
    w.seed = 4;
    for (int* count :
         {&w.actors, &w.musicians, &w.footballers, &w.coaches,
          &w.business_people, &w.directors, &w.plain_persons, &w.cities,
          &w.clubs, &w.films, &w.albums, &w.awards, &w.universities,
          &w.charities, &w.companies, &w.festivals, &w.characters}) {
      *count *= kScale;
    }
    config.wiki_eval_articles = 1 << 20;
    config.news_docs = 1 << 20;
    config.wikia_pages *= kScale;
    config.reverb_sentences = 0;
    return BuildDataset(config).release();
  }();
  return *ds;
}

struct Prepared {
  AnnotatedDocument doc;
  SemanticGraph graph;
};

Prepared Prepare(const SynthDataset& ds, const Document& doc) {
  NlpPipeline pipeline(ds.repository.get());
  Prepared p;
  p.doc = pipeline.Annotate(doc.id, doc.title, doc.text);
  GraphBuilder builder(ds.repository.get(), std::make_unique<MaltLikeParser>(),
                       GraphBuilder::Options());
  p.graph = builder.Build(p.doc);
  return p;
}

Prepared Prepare(const Document& doc) { return Prepare(Dataset(), doc); }

std::vector<bool> ActiveFlags(const SemanticGraph& graph) {
  std::vector<bool> out;
  for (size_t e = 0; e < graph.edge_count(); ++e) {
    out.push_back(graph.edge(static_cast<EdgeId>(e)).active);
  }
  return out;
}

// Naive Algorithm 1 over the public evaluator API: every round recomputes
// the contribution of every removable edge (no cache, no invalidation) and
// removes the (c, EdgeId) minimum. The heap loop must match it bit for bit,
// which also checks that its invalidation set misses nothing.
DensifyResult NaiveGreedy(const SynthDataset& ds, SemanticGraph* graph,
                          const AnnotatedDocument& doc) {
  DensifyEvaluator eval(graph, doc, &ds.stats, ds.repository.get(),
                        DensifyParams());
  DensifyResult result;
  eval.SnapshotOriginalMeans();
  eval.Preprocess();
  while (true) {
    const std::vector<EdgeId> removable = eval.RemovableEdges();
    if (removable.empty()) break;
    EdgeId best = removable.front();
    double best_c = std::numeric_limits<double>::infinity();
    for (EdgeId e : removable) {
      const double c = eval.Contribution(e);
      if (c < best_c || (c == best_c && e < best)) {
        best_c = c;
        best = e;
      }
    }
    graph->SetEdgeActive(best, false);
    ++result.edges_removed;
    result.removal_order.push_back(best);
  }
  result.objective = eval.Objective();
  eval.ComputeConfidencesInto(&result.assignments);
  result.pronoun_antecedents = ExtractPronounAntecedents(*graph);
  return result;
}

// Densifies two copies of one prepared document, one with the heap loop and
// one with the naive reference, and requires identical results.
void ExpectHeapMatchesNaive(const SynthDataset& ds, const Prepared& prepared,
                            const std::string& what) {
  GreedyDensifier heap(&ds.stats, ds.repository.get(), DensifyParams());
  Prepared ph = prepared;
  Prepared pn = prepared;
  auto rh = heap.Densify(&ph.graph, ph.doc);
  auto rn = NaiveGreedy(ds, &pn.graph, pn.doc);
  // Same edges removed, in the same order, leaving the same subgraph.
  EXPECT_EQ(rh.removal_order, rn.removal_order) << what;
  EXPECT_EQ(rh.edges_removed, rn.edges_removed) << what;
  EXPECT_EQ(ActiveFlags(ph.graph), ActiveFlags(pn.graph)) << what;
  // Same floats, not just approximately.
  EXPECT_EQ(rh.objective, rn.objective) << what;
  ASSERT_EQ(rh.assignments.size(), rn.assignments.size()) << what;
  for (size_t i = 0; i < rh.assignments.size(); ++i) {
    EXPECT_EQ(rh.assignments[i].mention, rn.assignments[i].mention) << what;
    EXPECT_EQ(rh.assignments[i].entity, rn.assignments[i].entity) << what;
    EXPECT_EQ(rh.assignments[i].confidence, rn.assignments[i].confidence)
        << what;
    EXPECT_EQ(rh.assignments[i].weight, rn.assignments[i].weight) << what;
  }
  EXPECT_EQ(rh.pronoun_antecedents, rn.pronoun_antecedents) << what;
}

TEST(DensifyDeterminismTest, HeapLoopMatchesNaiveReference) {
  const auto& ds = Dataset();
  ASSERT_EQ(ds.wiki_eval.size(), 12u);
  for (const GoldDocument& gd : ds.wiki_eval) {
    ExpectHeapMatchesNaive(ds, Prepare(ds, gd.doc), gd.doc.id);
  }
}

// Links consecutive pronoun nodes (ascending NodeId) with relation edges
// labelled like the document's first relation edge. Returns false when the
// graph has no relation edge or fewer than two pronouns.
bool AddPronounChain(SemanticGraph* graph) {
  const GraphEdge* first = nullptr;
  for (size_t e = 0; e < graph->edge_count() && first == nullptr; ++e) {
    const GraphEdge& edge = graph->edge(static_cast<EdgeId>(e));
    if (edge.kind == EdgeKind::kRelation) first = &edge;
  }
  const auto pronouns = graph->NodesOfKind(NodeKind::kPronoun);
  if (first == nullptr || pronouns.size() < 2) return false;
  const std::string label = first->label;
  const std::vector<NodeId> chain(pronouns.begin(), pronouns.end());
  for (size_t i = 1; i < chain.size(); ++i) {
    GraphEdge edge;
    edge.kind = EdgeKind::kRelation;
    edge.a = chain[i - 1];
    edge.b = chain[i];
    edge.label = label;
    graph->AddEdge(edge);
  }
  graph->Finalize();
  return true;
}

TEST(DensifyDeterminismTest, PronounPronounRelationReachesThirdHop) {
  // A relation edge between two pronouns puts a changed lane three hops from
  // the removal: a means edge at noun phrase n changes pronoun p1 (sameAs to
  // n), p1's lane to p2 changes, and that lane is a source of every means
  // edge at the noun phrases sameAs-linked to p2. In this world wiki:368 is
  // a document where skipping that hop reorders the removals.
  const auto& ds = ScaledDataset();
  const GoldDocument* target = nullptr;
  for (const GoldDocument& gd : ds.wiki_eval) {
    if (gd.doc.id == "wiki:368") target = &gd;
  }
  ASSERT_NE(target, nullptr);
  Prepared p = Prepare(ds, target->doc);
  ASSERT_TRUE(AddPronounChain(&p.graph));
  ExpectHeapMatchesNaive(ds, p, target->doc.id);
}

// Every value an evaluator returns must be bit-equal to the same call on a
// freshly constructed evaluator over a copy of the graph, whether edges were
// toggled through Deactivate (committed-list refresh) or behind its back
// through SemanticGraph::SetEdgeActive (mutation-counter rebuild).
TEST(DensifyEvaluatorCacheTest, MatchesFreshEvaluatorUnderToggles) {
  const auto& ds = Dataset();
  const DensifyParams params;
  DensifyWorkspace fresh_ws;
  Rng rng(13);
  int deactivated = 0;
  int behind_back = 0;
  for (const GoldDocument& gd : ds.wiki_eval) {
    Prepared p = Prepare(ds, gd.doc);
    DensifyEvaluator eval(&p.graph, p.doc, &ds.stats, ds.repository.get(),
                          params);
    eval.SnapshotOriginalMeans();
    eval.Preprocess();

    auto expect_fresh = [&](const std::string& when) {
      const SemanticGraph before = p.graph;
      SemanticGraph copy = p.graph;
      for (EdgeId e : eval.RemovableEdges()) {
        const double cached = eval.Contribution(e);
        DensifyEvaluator fresh(&copy, p.doc, &ds.stats, ds.repository.get(),
                               params, &fresh_ws);
        EXPECT_EQ(cached, fresh.Contribution(e))
            << gd.doc.id << " edge " << e << " " << when;
      }
      for (EdgeId r : eval.relation_edges()) {
        DensifyEvaluator fresh(&copy, p.doc, &ds.stats, ds.repository.get(),
                               params, &fresh_ws);
        EXPECT_EQ(eval.RelationEdgeWeight(r), fresh.RelationEdgeWeight(r))
            << gd.doc.id << " relation " << r << " " << when;
      }
      DensifyEvaluator fresh(&copy, p.doc, &ds.stats, ds.repository.get(),
                             params, &fresh_ws);
      EXPECT_EQ(eval.Objective(), fresh.Objective()) << gd.doc.id << " " << when;
      // Evaluation leaves the flags as it found them.
      EXPECT_EQ(ActiveFlags(p.graph), ActiveFlags(before));
    };

    expect_fresh("after Preprocess");
    std::vector<EdgeId> removed;
    for (int step = 0; step < 12; ++step) {
      const std::vector<EdgeId> removable = eval.RemovableEdges();
      if (removable.empty()) break;
      const EdgeId e = rng.Choose(removable);
      std::string op;
      switch (rng.NextInt(0, 3)) {
        case 0:
          eval.Deactivate(e);
          removed.push_back(e);
          ++deactivated;
          op = "Deactivate";
          break;
        case 1:
          p.graph.SetEdgeActive(e, false);
          removed.push_back(e);
          ++behind_back;
          op = "SetEdgeActive(false)";
          break;
        case 2:
          // Net no-op toggle: the flags are unchanged but the counter moved.
          p.graph.SetEdgeActive(e, false);
          p.graph.SetEdgeActive(e, true);
          ++behind_back;
          op = "off/on";
          break;
        default:
          if (removed.empty()) continue;
          // Re-activation, which the greedy loop never does.
          p.graph.SetEdgeActive(removed.back(), true);
          removed.pop_back();
          ++behind_back;
          op = "SetEdgeActive(true)";
          break;
      }
      // Leave some mutations unobserved so the next Deactivate or
      // Contribution sees a stale counter first.
      if (rng.NextBool(0.5)) {
        expect_fresh("step " + std::to_string(step) + " after " + op);
      }
    }
    expect_fresh("at the end");

    // Confidences evaluate swapped subgraphs through the evaluator's toggle.
    std::vector<DensifyResult::Assignment> cached;
    std::vector<DensifyResult::Assignment> expected;
    SemanticGraph copy = p.graph;
    DensifyEvaluator fresh(&copy, p.doc, &ds.stats, ds.repository.get(),
                           params, &fresh_ws);
    fresh.workspace().orig_active = eval.workspace().orig_active;
    eval.ComputeConfidencesInto(&cached);
    fresh.ComputeConfidencesInto(&expected);
    ASSERT_EQ(cached.size(), expected.size()) << gd.doc.id;
    for (size_t i = 0; i < cached.size(); ++i) {
      EXPECT_EQ(cached[i].mention, expected[i].mention) << gd.doc.id;
      EXPECT_EQ(cached[i].entity, expected[i].entity) << gd.doc.id;
      EXPECT_EQ(cached[i].confidence, expected[i].confidence) << gd.doc.id;
    }
  }
  // Both toggle paths were exercised.
  EXPECT_GT(deactivated, 0);
  EXPECT_GT(behind_back, 0);
}

// ---------------------------------------------------------------------------
// Exact contributions against a from-scratch integer brute force
// ---------------------------------------------------------------------------

// Active universe slots of a lane endpoint, read straight off the flags.
std::vector<uint32_t> ActiveSlots(const SemanticGraph& graph,
                                  const DensifyWorkspace& ws, NodeId n) {
  std::vector<uint32_t> out;
  const GraphNode& node = graph.node(n);
  const size_t id = static_cast<size_t>(n);
  if (node.kind == NodeKind::kPronoun) {
    for (uint32_t i = ws.pro_univ_off[id]; i < ws.pro_univ_off[id + 1]; ++i) {
      const DensifyWorkspace::PronounCandidate& c = ws.pro_univ[i];
      for (uint32_t k = c.pair_begin; k < c.pair_end; ++k) {
        if (graph.edge(ws.pro_pairs[k].same_as).active &&
            graph.edge(ws.pro_pairs[k].means).active) {
          out.push_back(i - ws.pro_univ_off[id]);
          break;
        }
      }
    }
  } else if (node.kind == NodeKind::kNounPhrase && !node.is_literal) {
    for (uint32_t i = ws.np_univ_off[id]; i < ws.np_univ_off[id + 1]; ++i) {
      if (graph.edge(ws.np_univ[i].edge).active) {
        out.push_back(i - ws.np_univ_off[id]);
      }
    }
  }
  return out;
}

struct LaneTotals {
  int64_t coh = 0;
  int64_t ts = 0;
  bool a_empty = false;
  bool b_empty = false;
};

// W of one lane from scratch: every active pair's coherence entry, and the
// type-signature entries with an empty side read from its literal slot.
LaneTotals LaneFromScratch(const SemanticGraph& graph,
                           const DensifyWorkspace& ws,
                           const DensifyWorkspace::RelationLane& lane) {
  const std::vector<uint32_t> a = ActiveSlots(graph, ws, lane.a);
  const std::vector<uint32_t> b = ActiveSlots(graph, ws, lane.b);
  LaneTotals t;
  t.a_empty = a.empty();
  t.b_empty = b.empty();
  for (uint32_t i : a) {
    for (uint32_t j : b) t.coh += ws.coh_pool[lane.coh_off + i * lane.ub_len + j];
  }
  std::vector<uint32_t> rows = a;
  std::vector<uint32_t> cols = b;
  if (rows.empty() && lane.lit_a) rows.push_back(lane.ua_len);
  if (cols.empty() && lane.lit_b) cols.push_back(lane.ub_len);
  for (uint32_t i : rows) {
    for (uint32_t j : cols) {
      t.ts += ws.ts_pool[lane.ts_off + i * (lane.ub_len + 1) + j];
    }
  }
  return t;
}

struct BruteStats {
  int contributions = 0;
  int pronoun_lanes = 0;   ///< Changed lanes with a changed pronoun endpoint.
  int literal_switches = 0;  ///< Sides that empty into their literal slot.
};

// mw[e] + (a3 * dcoh + a4 * dts) / 2^32 with the integer deltas summed from
// scratch over every lane: W(S) - W(S \ e). A lane incident to two changed
// mentions counts twice, as the densifier's contribution always has.
double BruteContribution(const DensifyEvaluator& eval,
                         const DensifyWorkspace& ws, SemanticGraph graph,
                         EdgeId e, const DensifyParams& params,
                         BruteStats* stats) {
  std::vector<NodeId> changed;
  eval.ChangedMentionsInto(e, &changed);
  auto count = [&changed](NodeId n) {
    return static_cast<int64_t>(
        std::count(changed.begin(), changed.end(), n));
  };
  std::vector<LaneTotals> before;
  for (const DensifyWorkspace::RelationLane& lane : ws.rel_lanes) {
    before.push_back(LaneFromScratch(graph, ws, lane));
  }
  graph.SetEdgeActive(e, false);
  int64_t dcoh = 0;
  int64_t dts = 0;
  for (size_t li = 0; li < ws.rel_lanes.size(); ++li) {
    const DensifyWorkspace::RelationLane& lane = ws.rel_lanes[li];
    const LaneTotals after = LaneFromScratch(graph, ws, lane);
    const int64_t times = graph.edge(lane.edge).active
                              ? count(lane.a) + count(lane.b)
                              : 0;
    if (times == 0) {
      // Only lanes at a changed mention can move.
      EXPECT_EQ(before[li].coh, after.coh) << "lane " << li;
      EXPECT_EQ(before[li].ts, after.ts) << "lane " << li;
      continue;
    }
    dcoh += times * (before[li].coh - after.coh);
    dts += times * (before[li].ts - after.ts);
    const bool moved =
        before[li].coh != after.coh || before[li].ts != after.ts;
    if (moved && (graph.node(lane.a).kind == NodeKind::kPronoun ||
                  graph.node(lane.b).kind == NodeKind::kPronoun)) {
      ++stats->pronoun_lanes;
    }
    if ((lane.lit_a && !before[li].a_empty && after.a_empty) ||
        (lane.lit_b && !before[li].b_empty && after.b_empty)) {
      ++stats->literal_switches;
    }
  }
  ++stats->contributions;
  return ws.mw_lane[static_cast<size_t>(e)] +
         (params.alpha3 * static_cast<double>(dcoh) +
          params.alpha4 * static_cast<double>(dts)) /
             DensifyWorkspace::kLaneOne;
}

// Confidences recomputed with brute-force contributions in each swapped
// subgraph, the way ComputeConfidencesInto defines them.
std::vector<double> BruteConfidences(const DensifyEvaluator& eval,
                                     const DensifyWorkspace& ws,
                                     const SemanticGraph& graph,
                                     const DensifyParams& params,
                                     BruteStats* stats, int* swaps) {
  std::vector<double> out;
  for (size_t np = 0; np < graph.node_count(); ++np) {
    const uint32_t begin = ws.np_univ_off[np];
    const uint32_t end = ws.np_univ_off[np + 1];
    EdgeId chosen = -1;
    bool any_orig = false;
    for (uint32_t i = begin; i < end; ++i) {
      const EdgeId m = ws.np_univ[i].edge;
      any_orig = any_orig || ws.orig_active[static_cast<size_t>(m)] != 0;
      if (chosen < 0 && graph.edge(m).active) chosen = m;
    }
    if (!any_orig || chosen < 0) continue;
    const double chosen_c = std::max(
        BruteContribution(eval, ws, graph, chosen, params, stats), 0.0);
    double denom = 0.0;
    for (uint32_t i = begin; i < end; ++i) {
      const EdgeId m = ws.np_univ[i].edge;
      if (!ws.orig_active[static_cast<size_t>(m)]) continue;
      if (m == chosen) {
        denom += chosen_c;
        continue;
      }
      SemanticGraph swapped = graph;
      swapped.SetEdgeActive(chosen, false);
      swapped.SetEdgeActive(m, true);
      denom += std::max(
          BruteContribution(eval, ws, swapped, m, params, stats), 0.0);
      ++*swaps;
    }
    out.push_back(chosen_c > 1e-12 ? (denom > 0.0 ? chosen_c / denom : 1.0)
                                   : -1.0);
  }
  return out;
}

TEST(DensifyExactnessTest, ContributionMatchesIntegerBruteForce) {
  const auto& ds = Dataset();
  const DensifyParams params;
  Rng rng(29);
  BruteStats stats;
  int behind_back = 0;
  int swaps = 0;
  for (const GoldDocument& gd : ds.wiki_eval) {
    Prepared p = Prepare(ds, gd.doc);
    DensifyEvaluator eval(&p.graph, p.doc, &ds.stats, ds.repository.get(),
                          params);
    const DensifyWorkspace& ws = eval.workspace();
    eval.SnapshotOriginalMeans();
    eval.Preprocess();
    for (int step = 0;; ++step) {
      const std::vector<EdgeId> removable = eval.RemovableEdges();
      if (removable.empty()) break;
      for (EdgeId e : removable) {
        EXPECT_EQ(eval.Contribution(e),
                  BruteContribution(eval, ws, p.graph, e, params, &stats))
            << gd.doc.id << " step " << step << " edge " << e;
      }
      // Mostly committed removals; about one step in five goes behind the
      // evaluator's back.
      const EdgeId e = rng.Choose(removable);
      if (rng.NextInt(0, 4) == 0) {
        p.graph.SetEdgeActive(e, false);
        ++behind_back;
      } else {
        eval.Deactivate(e);
      }
    }
    // The confidence path swaps edges through the evaluator.
    const std::vector<double> expected =
        BruteConfidences(eval, ws, p.graph, params, &stats, &swaps);
    std::vector<DensifyResult::Assignment> got;
    eval.ComputeConfidencesInto(&got);
    ASSERT_EQ(got.size(), expected.size()) << gd.doc.id;
    for (size_t i = 0; i < got.size(); ++i) {
      if (expected[i] < 0.0) continue;  // no evidence: a fixed fallback
      EXPECT_EQ(got[i].confidence, expected[i]) << gd.doc.id << " " << i;
    }
  }
  std::printf("exactness: %d contributions, %d pronoun lanes, %d literal "
              "switches, %d swaps, %d behind-back toggles\n",
              stats.contributions, stats.pronoun_lanes,
              stats.literal_switches, swaps, behind_back);
  EXPECT_GT(stats.pronoun_lanes, 0);
  EXPECT_GT(stats.literal_switches, 0);
  EXPECT_GT(swaps, 0);
  EXPECT_GT(behind_back, 0);
}

TEST(DensifyDeterminismTest, RemovalOrderStableAcrossRuns) {
  const auto& ds = Dataset();
  DensifyParams params;
  GreedyDensifier densifier(&ds.stats, ds.repository.get(), params);
  const GoldDocument& gd = ds.wiki_eval.front();
  Prepared first = Prepare(gd.doc);
  auto r1 = densifier.Densify(&first.graph, first.doc);
  for (int run = 0; run < 3; ++run) {
    Prepared p = Prepare(gd.doc);
    auto r = densifier.Densify(&p.graph, p.doc);
    EXPECT_EQ(r.removal_order, r1.removal_order);
    EXPECT_EQ(r.objective, r1.objective);
  }
}

TEST(DensifyDeterminismTest, TiesBreakTowardSmallerEdgeId) {
  // Hand-built graph engineered for an exact contribution tie: a pronoun
  // with two sameAs links to noun phrases and no relation edges anywhere.
  // Both sameAs edges then have contribution exactly 0.0, so the loop's
  // only ordering signal is the EdgeId tie-break. It must remove the
  // smaller id and stop (the survivor is no longer removable).
  const auto& ds = Dataset();
  SemanticGraph graph;
  GraphNode np1;
  np1.kind = NodeKind::kNounPhrase;
  np1.text = "the director";
  GraphNode np2 = np1;
  np2.text = "the producer";
  GraphNode pro;
  pro.kind = NodeKind::kPronoun;
  pro.text = "she";
  NodeId a = graph.AddNode(np1);
  NodeId b = graph.AddNode(np2);
  NodeId p = graph.AddNode(pro);

  GraphEdge e1;
  e1.kind = EdgeKind::kSameAs;
  e1.a = p;
  e1.b = a;
  GraphEdge e2 = e1;
  e2.b = b;
  EdgeId first = graph.AddEdge(e1);
  EdgeId second = graph.AddEdge(e2);
  ASSERT_LT(first, second);

  AnnotatedDocument empty_doc;
  DensifyParams params;
  GreedyDensifier densifier(&ds.stats, ds.repository.get(), params);
  auto result = densifier.Densify(&graph, empty_doc);

  ASSERT_EQ(result.removal_order.size(), 1u);
  EXPECT_EQ(result.removal_order.front(), first);
  EXPECT_FALSE(graph.edge(first).active);
  EXPECT_TRUE(graph.edge(second).active);
}

TEST(DensifyDeterminismTest, RemovalOrderMatchesEdgesRemoved) {
  const auto& ds = Dataset();
  DensifyParams params;
  GreedyDensifier densifier(&ds.stats, ds.repository.get(), params);
  int docs = 0;
  for (const GoldDocument& gd : ds.wiki_eval) {
    if (++docs > 4) break;
    Prepared p = Prepare(gd.doc);
    auto r = densifier.Densify(&p.graph, p.doc);
    EXPECT_EQ(r.removal_order.size(),
              static_cast<size_t>(r.edges_removed));
    // Each recorded edge is genuinely inactive, and recorded exactly once.
    std::vector<EdgeId> sorted = r.removal_order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
    for (EdgeId e : r.removal_order) {
      EXPECT_FALSE(p.graph.edge(e).active);
    }
  }
}

}  // namespace
}  // namespace qkbfly
