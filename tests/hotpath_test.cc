// Tests for the single-core hot-path rewrite: the interned-symbol table, the
// trie-backed gazetteer (against a linear reference), LooseCandidates
// dedup/ordering, the heap-driven densifier (against a naive greedy
// reference and its determinism guarantees), the evaluator's committed
// active lists (against freshly constructed evaluators) and its fixed-point
// contributions (against a from-scratch integer brute force), and the
// relation lanes' pair weights (against the Section 4 definition).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
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
  ASSERT_EQ(ds.news.size(), 20u);
  ASSERT_EQ(ds.wikia.size(), 10u);
  for (const auto* corpus : {&ds.wiki_eval, &ds.news, &ds.wikia}) {
    for (const GoldDocument& gd : *corpus) {
      ExpectHeapMatchesNaive(ds, Prepare(ds, gd.doc), gd.doc.id);
    }
  }
}

// The graph's first relation edge, or nullptr.
const GraphEdge* FirstRelationEdge(const SemanticGraph& graph) {
  for (size_t e = 0; e < graph.edge_count(); ++e) {
    const GraphEdge& edge = graph.edge(static_cast<EdgeId>(e));
    if (edge.kind == EdgeKind::kRelation) return &edge;
  }
  return nullptr;
}

// Links consecutive pronoun nodes (ascending NodeId) with relation edges
// labelled like the document's first relation edge. Returns false when the
// graph has no relation edge or fewer than two pronouns.
bool AddPronounChain(SemanticGraph* graph) {
  const GraphEdge* first = FirstRelationEdge(*graph);
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

// Adds a relation edge n -> n, labelled like the document's first relation
// edge, on every noun phrase with at least 3 active means edges. Returns
// the number of loops added (0 when the graph has no relation edge).
int AddSelfLoops(SemanticGraph* graph) {
  const GraphEdge* first = FirstRelationEdge(*graph);
  if (first == nullptr) return 0;
  const std::string label = first->label;
  int added = 0;
  for (NodeId n : graph->NodesOfKind(NodeKind::kNounPhrase)) {
    if (graph->ActiveMeansCount(n) < 3) continue;
    GraphEdge edge;
    edge.kind = EdgeKind::kRelation;
    edge.a = n;
    edge.b = n;
    edge.label = label;
    graph->AddEdge(edge);
    ++added;
  }
  graph->Finalize();
  return added;
}

// Gives every noun phrase with at least 2 active means edges a second means
// edge to the entity of its first, so its universe holds that entity twice.
// Returns the number of edges added.
int AddDuplicateMeans(SemanticGraph* graph) {
  int added = 0;
  for (NodeId n : graph->NodesOfKind(NodeKind::kNounPhrase)) {
    if (graph->ActiveMeansCount(n) < 2) continue;
    for (EdgeId m : graph->IncidentEdges(n)) {
      const GraphEdge& edge = graph->edge(m);
      if (edge.kind != EdgeKind::kMeans || !edge.active || edge.a != n) continue;
      GraphEdge copy = edge;
      graph->AddEdge(copy);
      graph->Finalize();  // the next noun phrase's IncidentEdges reads it
      ++added;
      break;
    }
  }
  graph->Finalize();
  return added;
}

// Links every pronoun to its first sameAs-linked noun phrase with a relation
// edge labelled like the document's first relation edge: a lane whose two
// endpoints both change when a means edge of that noun phrase goes. Returns
// the number of edges added.
int AddAntecedentRelations(SemanticGraph* graph) {
  const GraphEdge* first = FirstRelationEdge(*graph);
  if (first == nullptr) return 0;
  const std::string label = first->label;
  int added = 0;
  for (NodeId p : graph->NodesOfKind(NodeKind::kPronoun)) {
    for (EdgeId se : graph->IncidentEdges(p)) {
      const GraphEdge& s = graph->edge(se);
      const NodeId np = s.a == p ? s.b : s.a;
      if (s.kind != EdgeKind::kSameAs ||
          graph->node(np).kind != NodeKind::kNounPhrase) {
        continue;
      }
      GraphEdge edge;
      edge.kind = EdgeKind::kRelation;
      edge.a = np;
      edge.b = p;
      edge.label = label;
      graph->AddEdge(edge);
      graph->Finalize();  // the next pronoun's IncidentEdges reads it
      ++added;
      break;
    }
  }
  graph->Finalize();
  return added;
}

TEST(DensifyDeterminismTest, SelfLoopRelationReadsOwnNounPhrase) {
  // A self-loop lane is the one route by which a means edge's contribution
  // reads its own noun phrase's list without a pronoun in between: the
  // removal of a sibling must re-evaluate it.
  const auto& ds = Dataset();
  int loops = 0;
  for (const GoldDocument& gd : ds.wiki_eval) {
    Prepared p = Prepare(ds, gd.doc);
    loops += AddSelfLoops(&p.graph);
    ExpectHeapMatchesNaive(ds, p, gd.doc.id);
  }
  EXPECT_GT(loops, 0);
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

// CheckWorkspaceInvariants recounts the live support counts and committed
// lists from the flags: silent on an evaluator kept current by its own
// toggles, loud on a corrupted count or list.
TEST(DensifyEvaluatorCacheTest, WorkspaceInvariantCatchesCorruption) {
  const auto& ds = Dataset();
  int checked = 0;
  for (const GoldDocument& gd : ds.wiki_eval) {
    Prepared p = Prepare(ds, gd.doc);
    DensifyEvaluator eval(&p.graph, p.doc, &ds.stats, ds.repository.get(),
                          DensifyParams());
    eval.Preprocess();
    const std::vector<EdgeId> removable = eval.RemovableEdges();
    DensifyWorkspace& ws = eval.workspace();
    if (removable.empty() || ws.pro_univ.empty()) continue;
    eval.Deactivate(removable.front());
    ASSERT_EQ(eval.CheckWorkspaceInvariants(), "") << gd.doc.id;

    ++ws.pro_live.front();
    EXPECT_NE(eval.CheckWorkspaceInvariants(), "") << gd.doc.id;
    --ws.pro_live.front();

    const size_t mention =
        static_cast<size_t>(p.graph.edge(removable.front()).a);
    const uint32_t len = ws.active_len[mention];
    ws.active_len[mention] = len == 0 ? 1 : len - 1;
    EXPECT_NE(eval.CheckWorkspaceInvariants(), "") << gd.doc.id;
    ws.active_len[mention] = len;
    EXPECT_EQ(eval.CheckWorkspaceInvariants(), "") << gd.doc.id;
    ++checked;
  }
  EXPECT_GT(checked, 0);
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

// Inputs the removed-slot derivation of Contribution handles specially,
// counted off the flags before each checked contribution.
struct SpecialCases {
  int duplicate_entity = 0;    ///< Means edge whose entity has another slot.
  int candidate_survives = 0;  ///< Pronoun candidate with >= 2 active pairs
                               ///< that loses exactly one.
  int same_as_drops_many = 0;  ///< sameAs removal dropping >= 2 candidates.
  int both_ends_sources = 0;   ///< Active lane with both endpoints changed.
};

void CountSpecialCases(const DensifyEvaluator& eval, const DensifyWorkspace& ws,
                       const SemanticGraph& graph, EdgeId e,
                       SpecialCases* cases) {
  const GraphEdge& edge = graph.edge(e);
  if (edge.kind == EdgeKind::kMeans) {
    const size_t np = static_cast<size_t>(edge.a);
    const EntityId entity = graph.node(edge.b).entity;
    int slots = 0;
    for (uint32_t i = ws.np_univ_off[np]; i < ws.np_univ_off[np + 1]; ++i) {
      if (ws.np_univ[i].entity == entity) ++slots;
    }
    if (slots >= 2) ++cases->duplicate_entity;
  }
  std::vector<NodeId> sources;
  eval.ChangedMentionsInto(e, &sources);
  auto is_source = [&sources](NodeId n) {
    return std::find(sources.begin(), sources.end(), n) != sources.end();
  };
  for (NodeId p : sources) {
    if (graph.node(p).kind != NodeKind::kPronoun) continue;
    const size_t id = static_cast<size_t>(p);
    int dropped = 0;
    for (uint32_t c = ws.pro_univ_off[id]; c < ws.pro_univ_off[id + 1]; ++c) {
      const DensifyWorkspace::PronounCandidate& cand = ws.pro_univ[c];
      int active = 0;
      int with_e = 0;
      for (uint32_t k = cand.pair_begin; k < cand.pair_end; ++k) {
        const DensifyWorkspace::SupportPair& pair = ws.pro_pairs[k];
        if (!graph.edge(pair.same_as).active || !graph.edge(pair.means).active) {
          continue;
        }
        ++active;
        if (pair.same_as == e || pair.means == e) ++with_e;
      }
      if (active >= 2 && with_e == 1) ++cases->candidate_survives;
      if (active > 0 && with_e == active) ++dropped;
    }
    if (edge.kind == EdgeKind::kSameAs && dropped >= 2) {
      ++cases->same_as_drops_many;
    }
  }
  for (const DensifyWorkspace::RelationLane& lane : ws.rel_lanes) {
    if (graph.edge(lane.edge).active && is_source(lane.a) && is_source(lane.b)) {
      ++cases->both_ends_sources;
    }
  }
}

TEST(DensifyExactnessTest, ContributionMatchesIntegerBruteForce) {
  const DensifyParams params;
  Rng rng(29);
  BruteStats stats;
  SpecialCases cases;
  int behind_back = 0;
  int swaps = 0;
  auto check_document = [&](const SynthDataset& ds, const GoldDocument& gd,
                            bool perturb) {
    Prepared p = Prepare(ds, gd.doc);
    if (perturb) {
      AddDuplicateMeans(&p.graph);
      AddAntecedentRelations(&p.graph);
      AddSelfLoops(&p.graph);
    }
    DensifyEvaluator eval(&p.graph, p.doc, &ds.stats, ds.repository.get(),
                          params);
    const DensifyWorkspace& ws = eval.workspace();
    eval.SnapshotOriginalMeans();
    eval.Preprocess();
    for (int step = 0;; ++step) {
      const std::vector<EdgeId> removable = eval.RemovableEdges();
      if (removable.empty()) break;
      for (EdgeId e : removable) {
        CountSpecialCases(eval, ws, p.graph, e, &cases);
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
  };
  for (const GoldDocument& gd : Dataset().wiki_eval) {
    check_document(Dataset(), gd, false);
  }
  // The denser 6x world: its first few articles as built, then with
  // duplicate means edges, pronoun-antecedent relations and self loops
  // added, the inputs the documents themselves do not produce.
  const SynthDataset& scaled = ScaledDataset();
  for (size_t i = 0; i < 4 && i < scaled.wiki_eval.size(); ++i) {
    check_document(scaled, scaled.wiki_eval[i], false);
    check_document(scaled, scaled.wiki_eval[i], true);
  }
  std::printf("exactness: %d contributions, %d pronoun lanes, %d literal "
              "switches, %d swaps, %d behind-back toggles\n",
              stats.contributions, stats.pronoun_lanes,
              stats.literal_switches, swaps, behind_back);
  std::printf("special cases: %d duplicate-entity slots, %d surviving "
              "candidates, %d multi-drop sameAs removals, %d lanes with both "
              "ends changed\n",
              cases.duplicate_entity, cases.candidate_survives,
              cases.same_as_drops_many, cases.both_ends_sources);
  EXPECT_GT(stats.pronoun_lanes, 0);
  EXPECT_GT(stats.literal_switches, 0);
  EXPECT_GT(swaps, 0);
  EXPECT_GT(behind_back, 0);
  EXPECT_GT(cases.duplicate_entity, 0);
  EXPECT_GT(cases.candidate_survives, 0);
  EXPECT_GT(cases.same_as_drops_many, 0);
  EXPECT_GT(cases.both_ends_sources, 0);
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
  graph.Finalize();

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

// ---------------------------------------------------------------------------
// Relation lanes against the Section 4 definition
// ---------------------------------------------------------------------------

// One side of a relation edge fixed to a candidate (or, for kInvalidEntity,
// to the node's literal type): the type list the type signature sums over
// and the looseness factor. `selects` is false for kInvalidEntity on a node
// without a literal type.
struct ReferenceSide {
  bool selects = true;
  bool literal = false;
  std::vector<TypeId> types;
  double factor = 1.0;
};

ReferenceSide SideFor(const SynthDataset& ds, const GraphNode& node,
                      EntityId e) {
  const EntityRepository& repo = *ds.repository;
  const TypeSystem& ts = repo.type_system();
  ReferenceSide side;
  if (e == kInvalidEntity) {
    side.literal = true;
    std::optional<TypeId> type;
    if (node.kind == NodeKind::kEntity) {
      // Entity nodes never carry a literal type.
    } else if (node.ner == NerType::kTime) {
      type = ts.time();
    } else if (node.ner == NerType::kNumber) {
      type = ts.number();
    } else if (node.ner != NerType::kNone) {
      type = ts.Find(NerTypeName(node.ner));
    }
    side.selects = type.has_value();
    if (type) side.types.push_back(*type);
    return side;
  }
  for (TypeId t : repo.Get(e).types) ts.AncestorsInto(t, &side.types);
  const std::vector<EntityId>& exact = repo.CandidatesForAlias(node.text);
  side.factor =
      std::find(exact.begin(), exact.end(), e) != exact.end() ? 1.0 : 0.3;
  return side;
}

// Candidate universe of a relation endpoint, in universe order.
std::vector<EntityId> UniverseOf(const SemanticGraph& graph,
                                 const DensifyWorkspace& ws, NodeId n) {
  std::vector<EntityId> out;
  const GraphNode& node = graph.node(n);
  const size_t id = static_cast<size_t>(n);
  if (node.kind == NodeKind::kPronoun) {
    for (uint32_t i = ws.pro_univ_off[id]; i < ws.pro_univ_off[id + 1]; ++i) {
      out.push_back(ws.pro_univ[i].entity);
    }
  } else if (node.kind == NodeKind::kNounPhrase && !node.is_literal) {
    for (uint32_t i = ws.np_univ_off[id]; i < ws.np_univ_off[id + 1]; ++i) {
      out.push_back(ws.np_univ[i].entity);
    }
  }
  return out;
}

// a3 * coh(e1, e2) + a4 * ts(types(e1), pattern, types(e2)), each summand
// scaled by both looseness factors and rounded to 2^-32 as the lanes store
// it; coherence needs an entity on both sides.
double ReferencePairWeight(const SynthDataset& ds, const std::string& pattern,
                           const ReferenceSide& sa, EntityId a,
                           const ReferenceSide& sb, EntityId b,
                           const DensifyParams& params) {
  if (!sa.selects || !sb.selects) return 0.0;
  const double one = 4294967296.0;  // 2^32
  const double factors = sa.factor * sb.factor;
  int64_t coh = 0;
  if (!sa.literal && !sb.literal) {
    coh = std::llround(factors * ds.stats.Coherence(a, b) * one);
  }
  const int64_t ts = std::llround(
      factors * ds.stats.TypeSignatureSum(sa.types, pattern, sb.types) * one);
  return (params.alpha3 * static_cast<double>(coh) +
          params.alpha4 * static_cast<double>(ts)) /
         one;
}

TEST(DensifyLaneTest, PairWeightMatchesSection4Definition) {
  const auto& ds = Dataset();
  const DensifyParams params;
  int pairs = 0;
  int literal_slots = 0;
  int pronoun_sides = 0;
  int nonzero_coh = 0;
  std::vector<const GoldDocument*> docs;
  for (const GoldDocument& gd : ds.wiki_eval) docs.push_back(&gd);
  for (const GoldDocument& gd : ds.news) docs.push_back(&gd);
  for (const GoldDocument* gd : docs) {
    Prepared p = Prepare(ds, gd->doc);
    DensifyEvaluator eval(&p.graph, p.doc, &ds.stats, ds.repository.get(),
                          params);
    const DensifyWorkspace& ws = eval.workspace();
    for (EdgeId r : eval.relation_edges()) {
      const GraphEdge& edge = p.graph.edge(r);
      std::vector<EntityId> ua = UniverseOf(p.graph, ws, edge.a);
      std::vector<EntityId> ub = UniverseOf(p.graph, ws, edge.b);
      pronoun_sides += (p.graph.node(edge.a).kind == NodeKind::kPronoun) +
                       (p.graph.node(edge.b).kind == NodeKind::kPronoun);
      ua.push_back(kInvalidEntity);  // the literal slot
      ub.push_back(kInvalidEntity);
      for (EntityId a : ua) {
        const ReferenceSide sa = SideFor(ds, p.graph.node(edge.a), a);
        for (EntityId b : ub) {
          const ReferenceSide sb = SideFor(ds, p.graph.node(edge.b), b);
          EXPECT_EQ(eval.PairWeight(r, a, b),
                    ReferencePairWeight(ds, edge.label, sa, a, sb, b, params))
              << gd->doc.id << " edge " << r << " (" << a << ", " << b << ")";
          ++pairs;
          if ((sa.literal && sa.selects) || (sb.literal && sb.selects)) {
            ++literal_slots;
          }
          if (!sa.literal && !sb.literal && ds.stats.Coherence(a, b) > 0.0) {
            ++nonzero_coh;
          }
        }
      }
    }
  }
  std::printf("lanes: %d pairs, %d literal slots, %d pronoun sides, %d with "
              "coherence\n",
              pairs, literal_slots, pronoun_sides, nonzero_coh);
  EXPECT_GT(literal_slots, 0);
  EXPECT_GT(pronoun_sides, 0);
  EXPECT_GT(nonzero_coh, 0);
}

}  // namespace
}  // namespace qkbfly
