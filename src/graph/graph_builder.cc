#include "graph/graph_builder.h"

#include <algorithm>
#include <optional>
#include <span>

namespace qkbfly {

namespace {

// True if the lowered-token multiset of the shorter name is contained in the
// longer one: "Pitt" matches "Brad Pitt"; "Angelina Jolie" matches "Jolie".
// Both names are sorted Token::sym lists. Used to initialize sameAs edges
// between names of one NER type.
bool NameTokensMatch(std::span<const Symbol> a, std::span<const Symbol> b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return b.empty();
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace

struct GraphBuilder::BuildState {
  BuildState(const GraphBuilder* builder, const AnnotatedDocument* doc,
             SemanticGraph& graph)
      : builder(builder), doc(doc), graph(graph) {}

  const GraphBuilder* builder;
  const AnnotatedDocument* doc;
  SemanticGraph& graph;

  // (sentence << 40 | begin << 20 | end) -> node id for text-node dedup.
  std::unordered_map<uint64_t, NodeId> span_nodes;

  // One entry per noun-phrase node, in NodesOfKind(kNounPhrase) order: the
  // sorted Token::sym list of its mention span (empty for literals), stored
  // as the range name_offsets[i] .. name_offsets[i + 1] of name_syms.
  std::vector<Symbol> name_syms;
  std::vector<uint32_t> name_offsets{0};

  // One entry per pronoun node, in NodesOfKind(kPronoun) order: its lexicon
  // record, if the word has one.
  std::vector<std::optional<PronounInfo>> pronoun_info;

  std::span<const Symbol> Name(size_t np_index) const {
    return {name_syms.data() + name_offsets[np_index],
            name_syms.data() + name_offsets[np_index + 1]};
  }

  static uint64_t SpanKey(int sentence, const TokenSpan& span) {
    return (static_cast<uint64_t>(sentence) << 40) |
           (static_cast<uint64_t>(static_cast<uint32_t>(span.begin)) << 20) |
           static_cast<uint64_t>(static_cast<uint32_t>(span.end));
  }

  const AnnotatedSentence& Sentence(int s) const {
    return doc->sentences[static_cast<size_t>(s)];
  }

  // Creates (or reuses) the noun-phrase / pronoun node for a span.
  NodeId GetTextNode(int s, TokenSpan span, int head) {
    uint64_t key = SpanKey(s, span);
    auto it = span_nodes.find(key);
    if (it != span_nodes.end()) return it->second;

    const AnnotatedSentence& sentence = Sentence(s);
    const Token& head_token = sentence.tokens[static_cast<size_t>(head)];

    GraphNode node;
    node.sentence = s;
    node.span = span;

    if (head_token.pos == PosTag::kPRP) {
      node.kind = NodeKind::kPronoun;
      node.text = head_token.text;
      const auto& info =
          pronoun_info.emplace_back(Lexicon::Get().GetPronoun(head_token.sym));
      if (info) node.gender = info->gender;
    } else {
      node.kind = NodeKind::kNounPhrase;
      // NER mention covering the head wins; else trim leading determiners
      // and premodifiers from the span.
      TokenSpan mention_span = span;
      for (const NerMention& m : sentence.ner_mentions) {
        if (m.span.Contains(head)) {
          mention_span = m.span;
          node.ner = m.type;
          break;
        }
      }
      if (node.ner == NerType::kNone) {
        while (mention_span.begin < head) {
          PosTag t = sentence.tokens[static_cast<size_t>(mention_span.begin)].pos;
          if (t == PosTag::kDT || t == PosTag::kPRPS || t == PosTag::kPOS) {
            ++mention_span.begin;
          } else {
            break;
          }
        }
      }
      node.text = SpanText(sentence.tokens, mention_span);
      // Literals: time and number arguments, and lowercase non-name phrases
      // with no repository candidate.
      for (const TimeMention& tm : sentence.time_mentions) {
        if (tm.span.Contains(head)) {
          node.is_literal = true;
          node.ner = NerType::kTime;
          node.normalized_literal = tm.normalized;
          break;
        }
      }
      if (!node.is_literal) {
        if (node.ner == NerType::kNumber || head_token.pos == PosTag::kCD ||
            head_token.pos == PosTag::kSYM) {
          node.is_literal = true;
          node.ner = NerType::kNumber;
          node.normalized_literal = node.text;
        } else if (head_token.pos != PosTag::kNNP &&
                   !builder->repository_->HasAlias(node.text)) {
          node.is_literal = true;  // "actor", "the lyrics", ...
        }
      }
      if (!node.is_literal) {
        for (int t = mention_span.begin; t < mention_span.end; ++t) {
          name_syms.push_back(sentence.tokens[static_cast<size_t>(t)].sym);
        }
        std::sort(name_syms.begin() + name_offsets.back(), name_syms.end());
      }
      name_offsets.push_back(static_cast<uint32_t>(name_syms.size()));
    }
    NodeId id = graph.AddNode(std::move(node));
    span_nodes.emplace(key, id);
    return id;
  }

  // Creates the argument node for a clause constituent, resolving
  // appositions ("ex-wife Angelina Jolie" -> node for "Angelina Jolie") and
  // emitting the possessive relation heuristic when applicable.
  NodeId ArgumentNode(int s, const DependencyParse& parse, const Constituent& c) {
    const AnnotatedSentence& sentence = Sentence(s);
    int head = c.head;
    if (head < 0) return kNoNode;

    auto apposed = parse.DependentsWithLabel(head, DepLabel::kAppos);
    if (!apposed.empty()) {
      int appos_head = apposed[0];
      // Span of the apposed name: the name run around appos_head.
      TokenSpan name_span = NameSpanAround(sentence, appos_head);
      NodeId name_node = GetTextNode(s, name_span, appos_head);
      // Possessive relation: "[Pitt] 's [ex-wife] [Angelina Jolie]".
      auto possessors = parse.DependentsWithLabel(head, DepLabel::kPoss);
      if (!possessors.empty() &&
          sentence.tokens[static_cast<size_t>(possessors[0])].pos !=
              PosTag::kPRPS) {
        int poss = possessors[0];
        TokenSpan poss_span = NameSpanAround(sentence, poss);
        NodeId poss_node = GetTextNode(s, poss_span, poss);
        GraphEdge rel;
        rel.kind = EdgeKind::kRelation;
        rel.a = poss_node;
        rel.b = name_node;
        rel.label = sentence.tokens[static_cast<size_t>(head)].lemma;
        graph.AddEdge(std::move(rel));
      }
      return name_node;
    }
    return GetTextNode(s, c.span, head);
  }

  // The contiguous same-NER-mention (or NNP run) span containing `token`.
  TokenSpan NameSpanAround(const AnnotatedSentence& sentence, int token) const {
    for (const NerMention& m : sentence.ner_mentions) {
      if (m.span.Contains(token)) return m.span;
    }
    int lo = token;
    int hi = token;
    const auto& toks = sentence.tokens;
    while (lo > 0 && toks[static_cast<size_t>(lo - 1)].pos == PosTag::kNNP) --lo;
    while (hi + 1 < static_cast<int>(toks.size()) &&
           toks[static_cast<size_t>(hi + 1)].pos == PosTag::kNNP) {
      ++hi;
    }
    return {lo, hi + 1};
  }
};

GraphBuilder::GraphBuilder(const EntityRepository* repository,
                           std::unique_ptr<DependencyParser> parser,
                           Options options)
    : repository_(repository), parser_(std::move(parser)), options_(options) {}

SemanticGraph GraphBuilder::Build(const AnnotatedDocument& doc) const {
  SemanticGraph graph;
  BuildState state(this, &doc, graph);

  // --- per-sentence clause structure -> clause, NP and pronoun nodes --------
  for (int s = 0; s < static_cast<int>(doc.sentences.size()); ++s) {
    const AnnotatedSentence& sentence = doc.sentences[static_cast<size_t>(s)];
    DependencyParse parse = parser_->Parse(sentence.tokens);
    std::vector<Clause> clauses = detector_.Detect(sentence.tokens, parse);

    std::vector<NodeId> clause_nodes(clauses.size(), kNoNode);
    for (size_t c = 0; c < clauses.size(); ++c) {
      const Clause& clause = clauses[c];
      GraphNode node;
      node.kind = NodeKind::kClause;
      node.sentence = s;
      node.clause_type = clause.type;
      node.relation_pattern = clause.RelationPattern();
      node.negated_clause = clause.negated;
      node.text = clause.relation;
      clause_nodes[c] = graph.AddNode(std::move(node));
    }

    for (size_t c = 0; c < clauses.size(); ++c) {
      const Clause& clause = clauses[c];
      NodeId cnode = clause_nodes[c];

      // depends edge to the governing clause.
      if (clause.parent >= 0 &&
          clause.parent < static_cast<int>(clause_nodes.size())) {
        GraphEdge dep;
        dep.kind = EdgeKind::kDepends;
        dep.a = clause_nodes[static_cast<size_t>(clause.parent)];
        dep.b = cnode;
        dep.label = DepLabelName(clause.link);
        graph.AddEdge(std::move(dep));
      }

      if (!clause.has_subject) continue;
      NodeId subject = state.ArgumentNode(s, parse, clause.subject);
      if (subject == kNoNode) continue;
      graph.AddEdge({EdgeKind::kDepends, cnode, subject, "subject", true});

      std::string base = clause.negated ? "not " + clause.relation : clause.relation;
      auto connect = [&](const Constituent& arg, const std::string& label) {
        NodeId node = state.ArgumentNode(s, parse, arg);
        if (node == kNoNode) return;
        graph.AddEdge({EdgeKind::kDepends, cnode, node, "argument", true, kNoNode});
        graph.AddEdge({EdgeKind::kRelation, subject, node, label, true, cnode});
      };
      for (const Constituent& obj : clause.objects) connect(obj, base);
      if (clause.complement) connect(*clause.complement, base);
      for (const Constituent& adv : clause.adverbials) {
        connect(adv, adv.preposition.empty() ? base : base + " " + adv.preposition);
      }
    }
  }

  // --- means edges: candidate entities from the repository -------------------
  for (NodeId np : graph.NodesOfKind(NodeKind::kNounPhrase)) {
    const GraphNode& node = graph.node(np);
    if (node.is_literal) continue;
    // Exact alias matches plus loose partial-name candidates (Babelfy's
    // "loose identification of candidate meanings"). The weight model
    // discounts the loose ones; they mostly enlarge the inference problem.
    std::vector<EntityId> candidates = repository_->LooseCandidates(
        node.text, static_cast<size_t>(options_.max_candidates));
    for (EntityId e : candidates) {
      GraphNode entity_node;
      entity_node.kind = NodeKind::kEntity;
      entity_node.entity = e;
      NodeId en = graph.AddNode(std::move(entity_node));
      graph.AddEdge({EdgeKind::kMeans, np, en, "", true});
    }
  }

  // --- sameAs edges among noun phrases (name-match co-reference) ------------
  auto nps = graph.NodesOfKind(NodeKind::kNounPhrase);
  for (size_t i = 0; i < nps.size(); ++i) {
    const GraphNode& a = graph.node(nps[i]);
    if (a.is_literal) continue;
    for (size_t j = i + 1; j < nps.size(); ++j) {
      const GraphNode& b = graph.node(nps[j]);
      if (b.is_literal) continue;
      if (a.ner != b.ner) continue;
      if (a.sentence == b.sentence && a.span == b.span) continue;
      if (NameTokensMatch(state.Name(i), state.Name(j))) {
        graph.AddEdge({EdgeKind::kSameAs, nps[i], nps[j], "", true});
      }
    }
  }

  // --- sameAs edges from pronouns to candidate antecedents -------------------
  if (!options_.pronoun_coreference) {
    graph.Finalize();
    return graph;
  }
  auto pronouns = graph.NodesOfKind(NodeKind::kPronoun);
  for (size_t k = 0; k < pronouns.size(); ++k) {
    const NodeId p = pronouns[k];
    const GraphNode& pro = graph.node(p);
    const std::optional<PronounInfo>& info = state.pronoun_info[k];
    bool personal = !info || info->personal_reference;
    for (NodeId np : nps) {
      const GraphNode& cand = graph.node(np);
      if (cand.is_literal) continue;
      if (cand.sentence > pro.sentence ||
          cand.sentence < pro.sentence - options_.pronoun_window) {
        continue;
      }
      if (cand.sentence == pro.sentence && cand.span.begin >= pro.span.begin) {
        continue;  // antecedents precede the pronoun
      }
      // "he"/"she" refer to persons, "it" to non-persons, "they" to either.
      if (info && !info->plural) {
        if (personal && cand.ner != NerType::kPerson) continue;
        if (!personal && cand.ner == NerType::kPerson) continue;
      }
      graph.AddEdge({EdgeKind::kSameAs, p, np, "", true});
    }
  }

  // Build the CSR adjacency index now, while the graph is still warm: the
  // densifier and every downstream reader start from an indexed graph.
  graph.Finalize();
  return graph;
}

}  // namespace qkbfly
