// Unit tests for the semantic-graph model and the graph builder (Stage 1).
// Labelled `asan`: the builder indexes per-node token lists and reads
// mention spans, so run it under AddressSanitizer with
//   cmake -B build-asan -S . -DQKBFLY_SANITIZE=address && ctest -L asan
#include "graph/graph_builder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mutate.h"
#include "nlp/pipeline.h"
#include "parser/malt_parser.h"
#include "synth/dataset.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace qkbfly {
namespace {

// Reference for the builder's sameAs name match, on the mention strings:
// true if the lowercased, whitespace-split token multiset of the shorter
// mention is contained in the longer one ("Pitt" matches "Brad Pitt").
bool NameStringMatch(const std::string& a, const std::string& b) {
  if (EqualsIgnoreCase(a, b)) return true;
  std::vector<std::string> ta = SplitWhitespace(Lowercase(a));
  std::vector<std::string> tb = SplitWhitespace(Lowercase(b));
  if (ta.empty() || tb.empty()) return false;
  const auto& small = ta.size() <= tb.size() ? ta : tb;
  const auto& big = ta.size() <= tb.size() ? tb : ta;
  std::multiset<std::string> big_set(big.begin(), big.end());
  for (const std::string& w : small) {
    auto it = big_set.find(w);
    if (it == big_set.end()) return false;
    big_set.erase(it);
  }
  return true;
}

struct NamePairCounts {
  size_t pairs = 0;    ///< NP pairs the builder's sameAs filters admit.
  size_t matches = 0;  ///< Of those, pairs the reference matches.
};

// Every noun-phrase pair that passes the builder's filters (both non-literal,
// same NER type, different spans) carries an NP-NP sameAs edge exactly when
// NameStringMatch holds, and no other NP-NP sameAs edge exists.
NamePairCounts ExpectSameAsFollowsReference(const SemanticGraph& g) {
  std::set<std::pair<NodeId, NodeId>> linked;
  for (size_t e = 0; e < g.edge_count(); ++e) {
    const GraphEdge& edge = g.edge(static_cast<EdgeId>(e));
    if (edge.kind == EdgeKind::kSameAs &&
        g.node(edge.a).kind == NodeKind::kNounPhrase &&
        g.node(edge.b).kind == NodeKind::kNounPhrase) {
      linked.emplace(edge.a, edge.b);
    }
  }
  NamePairCounts counts;
  size_t admitted_links = 0;
  auto nps = g.NodesOfKind(NodeKind::kNounPhrase);
  for (size_t i = 0; i < nps.size(); ++i) {
    const GraphNode& a = g.node(nps[i]);
    if (a.is_literal) continue;
    for (size_t j = i + 1; j < nps.size(); ++j) {
      const GraphNode& b = g.node(nps[j]);
      if (b.is_literal || a.ner != b.ner) continue;
      if (a.sentence == b.sentence && a.span == b.span) continue;
      const bool expected = NameStringMatch(a.text, b.text);
      const bool has_edge = linked.count({nps[i], nps[j]}) > 0;
      EXPECT_EQ(has_edge, expected) << "'" << a.text << "' / '" << b.text << "'";
      ++counts.pairs;
      if (expected) ++counts.matches;
      if (has_edge) ++admitted_links;
    }
  }
  EXPECT_EQ(admitted_links, linked.size());
  return counts;
}

class GraphBuilderTest : public ::testing::Test {
 protected:
  GraphBuilderTest() : types_(TypeSystem::BuildDefault()), repo_(&types_) {
    auto type = [this](const char* name) { return *types_.Find(name); };
    brad_ = repo_.AddEntity("Brad Pitt", {"Pitt"}, {type("ACTOR")}, Gender::kMale);
    jolie_ = repo_.AddEntity("Angelina Jolie", {"Jolie"}, {type("ACTOR")},
                             Gender::kFemale);
    repo_.AddEntity("Michael Pitt", {"Pitt"}, {type("ACTOR")}, Gender::kMale);
    repo_.AddEntity("ONE Campaign", {}, {type("CHARITY")});
  }

  SemanticGraph Build(const std::string& text,
                      GraphBuilder::Options options = GraphBuilder::Options()) {
    NlpPipeline pipeline(&repo_);
    AnnotatedDocument doc = pipeline.Annotate("t", "", text);
    GraphBuilder builder(&repo_, std::make_unique<MaltLikeParser>(), options);
    return builder.Build(doc);
  }

  int CountEdges(const SemanticGraph& g, EdgeKind kind) {
    int n = 0;
    for (size_t e = 0; e < g.edge_count(); ++e) {
      if (g.edge(static_cast<EdgeId>(e)).kind == kind) ++n;
    }
    return n;
  }

  NodeId FindNp(const SemanticGraph& g, const std::string& text) {
    for (NodeId n : g.NodesOfKind(NodeKind::kNounPhrase)) {
      if (g.node(n).text == text) return n;
    }
    return kNoNode;
  }

  TypeSystem types_;
  EntityRepository repo_;
  EntityId brad_, jolie_;
};

TEST_F(GraphBuilderTest, FourNodeKindsPresent) {
  auto g = Build("Brad Pitt is an actor. He supports the ONE Campaign.");
  EXPECT_FALSE(g.NodesOfKind(NodeKind::kClause).empty());
  EXPECT_FALSE(g.NodesOfKind(NodeKind::kNounPhrase).empty());
  EXPECT_FALSE(g.NodesOfKind(NodeKind::kPronoun).empty());
  EXPECT_FALSE(g.NodesOfKind(NodeKind::kEntity).empty());
}

TEST_F(GraphBuilderTest, MeansEdgesForAmbiguousAlias) {
  auto g = Build("Pitt married Angelina Jolie.");
  NodeId pitt = FindNp(g, "Pitt");
  ASSERT_NE(pitt, kNoNode);
  // "Pitt" is an alias of both Brad and Michael Pitt.
  EXPECT_GE(g.ActiveMeans(pitt).size(), 2u);
}

TEST_F(GraphBuilderTest, LiteralNodesHaveNoMeansEdges) {
  auto g = Build("Pitt donated $100,000 to the ONE Campaign.");
  NodeId amount = FindNp(g, "$100,000");
  ASSERT_NE(amount, kNoNode);
  EXPECT_TRUE(g.node(amount).is_literal);
  EXPECT_TRUE(g.ActiveMeans(amount).empty());
}

TEST_F(GraphBuilderTest, SameAsBetweenNameVariants) {
  auto g = Build("Brad Pitt is an actor. Pitt supports the ONE Campaign.");
  NodeId full = FindNp(g, "Brad Pitt");
  NodeId shorter = FindNp(g, "Pitt");
  ASSERT_NE(full, kNoNode);
  ASSERT_NE(shorter, kNoNode);
  bool linked = false;
  for (const auto& [e, other] : g.ActiveSameAs(full)) {
    if (other == shorter) linked = true;
  }
  EXPECT_TRUE(linked);
}

TEST_F(GraphBuilderTest, PronounLinksToPrecedingPersons) {
  auto g = Build("Brad Pitt is an actor. He supports the ONE Campaign.");
  auto pronouns = g.NodesOfKind(NodeKind::kPronoun);
  ASSERT_EQ(pronouns.size(), 1u);
  EXPECT_FALSE(g.ActiveSameAs(pronouns[0]).empty());
}

TEST_F(GraphBuilderTest, PronounWindowRespected) {
  GraphBuilder::Options options;
  options.pronoun_window = 0;  // same-sentence antecedents only
  auto g = Build("Brad Pitt is an actor. He supports the ONE Campaign.", options);
  auto pronouns = g.NodesOfKind(NodeKind::kPronoun);
  ASSERT_EQ(pronouns.size(), 1u);
  // The only antecedent candidate is one sentence back -> no links.
  EXPECT_TRUE(g.ActiveSameAs(pronouns[0]).empty());
}

TEST_F(GraphBuilderTest, NoPronounEdgesInNounOnlyMode) {
  GraphBuilder::Options options;
  options.pronoun_coreference = false;
  auto g = Build("Brad Pitt is an actor. He supports the ONE Campaign.", options);
  for (NodeId p : g.NodesOfKind(NodeKind::kPronoun)) {
    EXPECT_TRUE(g.ActiveSameAs(p).empty());
  }
}

TEST_F(GraphBuilderTest, RelationEdgesCarryClause) {
  auto g = Build("Pitt married Angelina Jolie.");
  int relation_edges = 0;
  for (size_t e = 0; e < g.edge_count(); ++e) {
    const GraphEdge& edge = g.edge(static_cast<EdgeId>(e));
    if (edge.kind != EdgeKind::kRelation) continue;
    ++relation_edges;
    EXPECT_NE(edge.clause, kNoNode);
    EXPECT_EQ(g.node(edge.clause).kind, NodeKind::kClause);
  }
  EXPECT_GE(relation_edges, 1);
}

TEST_F(GraphBuilderTest, EntityNodesDeduplicated) {
  auto g = Build("Brad Pitt is an actor. Brad Pitt supports the ONE Campaign.");
  // Both mentions propose Brad Pitt; the entity node must be shared.
  EXPECT_EQ(g.EntityNode(brad_),
            g.EntityNode(brad_));
  int brad_nodes = 0;
  for (NodeId n : g.NodesOfKind(NodeKind::kEntity)) {
    if (g.node(n).entity == brad_) ++brad_nodes;
  }
  EXPECT_EQ(brad_nodes, 1);
}

TEST_F(GraphBuilderTest, NameMatchCountsRepeatedTokensAndIgnoresCase) {
  // "Pitt Pitt" holds "pitt" twice, "Brad Pitt" once: a set inclusion would
  // link them, the multiset inclusion must not.
  auto repeated = Build("Pitt Pitt married Angelina Jolie. Brad Pitt supports "
                        "the ONE Campaign.");
  NodeId twice = FindNp(repeated, "Pitt Pitt");
  NodeId once = FindNp(repeated, "Brad Pitt");
  ASSERT_NE(twice, kNoNode);
  ASSERT_NE(once, kNoNode);
  ASSERT_EQ(repeated.node(twice).ner, repeated.node(once).ner);
  for (const auto& [e, other] : repeated.ActiveSameAs(twice)) {
    EXPECT_NE(other, once);
  }
  EXPECT_EQ(ExpectSameAsFollowsReference(repeated).matches, 0u);

  // Names that differ only in case are the same name.
  auto cased = Build("Brad Pitt is an actor. BRAD PITT supports the ONE Campaign.");
  NodeId title = FindNp(cased, "Brad Pitt");
  NodeId upper = FindNp(cased, "BRAD PITT");
  ASSERT_NE(title, kNoNode);
  ASSERT_NE(upper, kNoNode);
  bool linked = false;
  for (const auto& [e, other] : cased.ActiveSameAs(title)) {
    if (other == upper) linked = true;
  }
  EXPECT_TRUE(linked);
  EXPECT_EQ(ExpectSameAsFollowsReference(cased).matches, 1u);
}

TEST(GraphNameMatchTest, SameAsFollowsStringReference) {
  // The 12 golden articles densify_golden_test pins, then seeded whole-
  // document mutants of them (tests/mutate.h, as text_mutation_test).
  DatasetConfig config;
  config.wiki_eval_articles = 12;
  auto ds = BuildDataset(config);
  NlpPipeline pipeline(ds->repository.get());
  GraphBuilder builder(ds->repository.get(), std::make_unique<MaltLikeParser>());

  std::vector<std::string> texts;
  for (const GoldDocument& gd : ds->wiki_eval) texts.push_back(gd.doc.text);
  NamePairCounts golden;
  for (const std::string& text : texts) {
    NamePairCounts c =
        ExpectSameAsFollowsReference(builder.Build(pipeline.Annotate("g", "", text)));
    golden.pairs += c.pairs;
    golden.matches += c.matches;
  }
  EXPECT_GT(golden.matches, 0u);
  EXPECT_LT(golden.matches, golden.pairs);

  Rng rng(20261020);
  NamePairCounts mutants;
  constexpr int kMutants = 300;
  for (int m = 0; m < kMutants; ++m) {
    const std::string text = Mutate(rng.Choose(texts), kTextSignificant, rng);
    NamePairCounts c =
        ExpectSameAsFollowsReference(builder.Build(pipeline.Annotate("m", "", text)));
    mutants.pairs += c.pairs;
    mutants.matches += c.matches;
  }
  std::printf("name match: golden %zu pairs (%zu match), %d mutants %zu pairs "
              "(%zu match)\n",
              golden.pairs, golden.matches, kMutants, mutants.pairs,
              mutants.matches);
  EXPECT_GT(mutants.matches, 0u);
  EXPECT_LT(mutants.matches, mutants.pairs);
}

TEST(SemanticGraphTest, IncidentSpansMatchNaiveAdjacency) {
  // Hand-built star-plus-loop graph: spans must list each node's edges in
  // ascending EdgeId order, with self-loops twice, regardless of flags.
  SemanticGraph g;
  GraphNode np;
  np.kind = NodeKind::kNounPhrase;
  NodeId n0 = g.AddNode(np);
  NodeId n1 = g.AddNode(np);
  NodeId n2 = g.AddNode(np);
  EdgeId e0 = g.AddEdge({EdgeKind::kSameAs, n0, n1, "", true, kNoNode});
  EdgeId e1 = g.AddEdge({EdgeKind::kSameAs, n0, n2, "", true, kNoNode});
  EdgeId e2 = g.AddEdge({EdgeKind::kDepends, n0, n0, "", true, kNoNode});
  EdgeId e3 = g.AddEdge({EdgeKind::kSameAs, n1, n2, "", false, kNoNode});
  g.Finalize();
  ASSERT_TRUE(g.finalized());

  auto ids = [](SemanticGraph::EdgeSpan span) {
    return std::vector<EdgeId>(span.begin(), span.end());
  };
  EXPECT_EQ(ids(g.IncidentEdges(n0)), (std::vector<EdgeId>{e0, e1, e2, e2}));
  EXPECT_EQ(ids(g.IncidentEdges(n1)), (std::vector<EdgeId>{e0, e3}));
  EXPECT_EQ(ids(g.IncidentEdges(n2)), (std::vector<EdgeId>{e1, e3}));
  // One offset per node plus one, one slot per edge endpoint: the spans
  // tile the incident-edge array exactly.
  EXPECT_EQ(g.IncidentEdges(n0).data() + 4, g.IncidentEdges(n1).data());
  EXPECT_EQ(g.IncidentEdges(n1).data() + 2, g.IncidentEdges(n2).data());

  // A mutation clears the flag, adjacency queries refuse the stale index,
  // and an explicit Finalize() covers the new edge.
  EdgeId e4 = g.AddEdge({EdgeKind::kSameAs, n1, n0, "", true, kNoNode});
  EXPECT_FALSE(g.finalized());
  EXPECT_DEATH(g.IncidentEdges(n0), "unfinalized");
  g.Finalize();
  ASSERT_TRUE(g.finalized());
  EXPECT_EQ(ids(g.IncidentEdges(n0)), (std::vector<EdgeId>{e0, e1, e2, e2, e4}));
  EXPECT_EQ(ids(g.IncidentEdges(n1)), (std::vector<EdgeId>{e0, e3, e4}));

  // A copy of a finalized graph carries its own index and agrees with the
  // source.
  SemanticGraph copy = g;
  ASSERT_TRUE(copy.finalized());
  for (NodeId n : {n0, n1, n2}) {
    EXPECT_EQ(ids(copy.IncidentEdges(n)), ids(g.IncidentEdges(n)));
    EXPECT_NE(copy.IncidentEdges(n).data(), g.IncidentEdges(n).data());
  }

  // A move keeps the index buffer: a span taken before the move still
  // points at the moved-to graph's index.
  const EdgeId* before = g.IncidentEdges(n1).data();
  SemanticGraph moved = std::move(g);
  ASSERT_TRUE(moved.finalized());
  EXPECT_EQ(moved.IncidentEdges(n1).data(), before);
  EXPECT_EQ(ids(moved.IncidentEdges(n1)), (std::vector<EdgeId>{e0, e3, e4}));
}

TEST(SemanticGraphTest, EdgeActivationToggles) {
  SemanticGraph g;
  GraphNode a;
  a.kind = NodeKind::kNounPhrase;
  GraphNode b = a;
  NodeId na = g.AddNode(a);
  NodeId nb = g.AddNode(b);
  EdgeId e = g.AddEdge({EdgeKind::kSameAs, na, nb, "", true, kNoNode});
  g.Finalize();
  EXPECT_EQ(g.ActiveSameAs(na).size(), 1u);
  g.SetEdgeActive(e, false);
  EXPECT_TRUE(g.ActiveSameAs(na).empty());
  g.SetEdgeActive(e, true);
  EXPECT_EQ(g.ActiveSameAs(na).size(), 1u);
}

}  // namespace
}  // namespace qkbfly
