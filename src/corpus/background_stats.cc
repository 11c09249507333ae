#include "corpus/background_stats.h"

#include <algorithm>
#include <cmath>

#include "kb/pattern_repository.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace qkbfly {

namespace {

// Content-word filter for context vectors: nouns, verbs (except the
// copula/light verbs), adjectives and numbers carry topical signal.
bool IsContentToken(const Token& t) {
  if (IsNounTag(t.pos) || t.pos == PosTag::kJJ || t.pos == PosTag::kCD) return true;
  if (IsVerbTag(t.pos)) {
    return t.lemma != "be" && t.lemma != "have" && t.lemma != "do";
  }
  return false;
}

std::string TermOf(const Token& t) { return Lowercase(t.lemma.empty() ? t.text : t.lemma); }

// All token spans in `tokens` whose surface equals the given word sequence.
std::vector<TokenSpan> FindSurfaceSpans(const std::vector<Token>& tokens,
                                        const std::vector<std::string>& words) {
  std::vector<TokenSpan> spans;
  if (words.empty()) return spans;
  const int n = static_cast<int>(tokens.size());
  const int m = static_cast<int>(words.size());
  for (int i = 0; i + m <= n; ++i) {
    bool match = true;
    for (int j = 0; j < m; ++j) {
      if (!EqualsIgnoreCase(tokens[static_cast<size_t>(i + j)].text, words[j])) {
        match = false;
        break;
      }
    }
    if (match) spans.push_back({i, i + m});
  }
  return spans;
}

}  // namespace

double BackgroundStats::Prior(std::string_view mention, EntityId entity) const {
  return PriorLowered(Lowercase(mention), entity);
}

double BackgroundStats::PriorLowered(std::string_view lowered_mention,
                                     EntityId entity) const {
  auto it = anchor_counts_.find(lowered_mention);
  if (it == anchor_counts_.end()) return 0.0;
  auto jt = it->second.find(entity);
  if (jt == it->second.end()) return 0.0;
  auto total = mention_totals_.find(lowered_mention);
  QKB_CHECK(total != mention_totals_.end());
  return static_cast<double>(jt->second) / static_cast<double>(total->second);
}

const SparseVector& BackgroundStats::EntityContext(EntityId entity) const {
  static const SparseVector kEmpty;
  return entity < entity_contexts_.size() ? entity_contexts_[entity] : kEmpty;
}

SparseVector BackgroundStats::MentionContext(
    const std::vector<Token>& sentence_tokens) const {
  SparseVector v;
  std::string scratch;
  MentionContextInto(sentence_tokens, &scratch, &v);
  return v;
}

void BackgroundStats::MentionContextInto(
    const std::vector<Token>& sentence_tokens, std::string* scratch,
    SparseVector* out) const {
  out->Clear();
  for (const Token& t : sentence_tokens) {
    if (!IsContentToken(t)) continue;
    LowercaseInto(t.lemma.empty() ? t.text : t.lemma, scratch);
    auto id = terms_.Lookup(*scratch);
    if (!id) continue;  // unseen terms cannot overlap any entity context
    double idf = std::log((1.0 + document_count_) / (1.0 + doc_freq_[*id]));
    out->Add(*id, idf);
  }
  out->Finalize();
}

double BackgroundStats::Coherence(EntityId e1, EntityId e2) const {
  return WeightedOverlap(EntityContext(e1), EntityContext(e2));
}

double BackgroundStats::TypeSignature(TypeId t1, std::string_view pattern,
                                      TypeId t2) const {
  auto it = type_sig_counts_.find(pattern);
  if (it == type_sig_counts_.end()) return 0.0;
  auto jt = it->second.find(TypePairKey(t1, t2));
  if (jt == it->second.end()) return 0.0;
  auto total = type_sig_totals_.find(pattern);
  QKB_CHECK(total != type_sig_totals_.end());
  return static_cast<double>(jt->second) / static_cast<double>(total->second);
}

BackgroundStats::TypeSignatureTable BackgroundStats::FindTypeSignatureTable(
    std::string_view pattern) const {
  TypeSignatureTable table;
  auto it = type_sig_counts_.find(pattern);
  if (it == type_sig_counts_.end()) return table;
  auto total = type_sig_totals_.find(pattern);
  QKB_CHECK(total != type_sig_totals_.end());
  table.counts = &it->second;
  table.denom = static_cast<double>(total->second);
  return table;
}

double BackgroundStats::TypeSignatureSum(
    const TypeSignatureTable& table, std::span<const TypeId> subject_types,
    std::span<const TypeId> object_types) const {
  if (subject_types.empty() || object_types.empty()) return 0.0;
  if (table.counts == nullptr) return 0.0;
  // Each term is count/total summed in the same nested-loop order as the
  // per-pair TypeSignature(), so the result is bit-identical.
  double sum = 0.0;
  for (TypeId t1 : subject_types) {
    for (TypeId t2 : object_types) {
      auto jt = table.counts->find(TypePairKey(t1, t2));
      if (jt == table.counts->end()) continue;
      sum += static_cast<double>(jt->second) / table.denom;
    }
  }
  return sum;
}

double BackgroundStats::TypeSignatureSum(
    const std::vector<TypeId>& subject_types, std::string_view pattern,
    const std::vector<TypeId>& object_types) const {
  return TypeSignatureSum(FindTypeSignatureTable(pattern), subject_types,
                          object_types);
}

BackgroundStats StatisticsBuilder::Build(const DocumentStore& corpus,
                                         const NlpPipeline& pipeline) const {
  BackgroundStats stats;
  stats.document_count_ = corpus.size();

  ClausIe clausie = ClausIe::Fast();

  // Raw term frequencies per entity; converted to TF-IDF at the end.
  std::unordered_map<EntityId, std::unordered_map<uint32_t, double>> entity_tf;

  for (const Document& doc : corpus.all()) {
    AnnotatedDocument annotated = pipeline.Annotate(doc.id, doc.title, doc.text);

    // --- document frequencies -------------------------------------------------
    std::vector<bool> seen_in_doc(stats.doc_freq_.size(), false);
    auto touch_term = [&stats, &seen_in_doc](const std::string& term) {
      uint32_t id = stats.terms_.Intern(term);
      if (id >= stats.doc_freq_.size()) stats.doc_freq_.resize(id + 1, 0);
      if (id >= seen_in_doc.size()) seen_in_doc.resize(id + 1, false);
      if (!seen_in_doc[id]) {
        seen_in_doc[id] = true;
        ++stats.doc_freq_[id];
      }
      return id;
    };

    // --- anchors: priors + entity context sentences ---------------------------
    // Group anchor spans per sentence for clause typing below.
    std::vector<std::vector<std::pair<TokenSpan, EntityId>>> anchor_spans(
        annotated.sentences.size());
    for (const Anchor& anchor : doc.anchors) {
      if (anchor.sentence < 0 ||
          anchor.sentence >= static_cast<int>(annotated.sentences.size())) {
        continue;
      }
      std::string key = Lowercase(anchor.surface);
      ++stats.anchor_counts_[key][anchor.entity];
      ++stats.mention_totals_[key];
      const auto& sent = annotated.sentences[static_cast<size_t>(anchor.sentence)];
      auto spans = FindSurfaceSpans(sent.tokens, SplitWhitespace(anchor.surface));
      for (const TokenSpan& span : spans) {
        anchor_spans[static_cast<size_t>(anchor.sentence)].emplace_back(span,
                                                                        anchor.entity);
      }
      // The linking sentence contributes to the entity's context.
      auto& tf = entity_tf[anchor.entity];
      for (const Token& t : sent.tokens) {
        if (IsContentToken(t)) tf[stats.terms_.Intern(TermOf(t))] += 1.0;
      }
    }

    // --- the article's own entity gets the whole document as context ----------
    EntityId article_entity = kInvalidEntity;
    if (auto found = repository_->FindByName(doc.title); found.ok()) {
      article_entity = *found;
    }
    for (const auto& sentence : annotated.sentences) {
      for (const Token& t : sentence.tokens) {
        if (!IsContentToken(t)) continue;
        uint32_t id = touch_term(TermOf(t));
        if (article_entity != kInvalidEntity) {
          entity_tf[article_entity][id] += 1.0;
        }
      }
    }

    // --- clause statistics for type signatures ---------------------------------
    for (size_t s = 0; s < annotated.sentences.size(); ++s) {
      const auto& sentence = annotated.sentences[s];
      auto clauses = clausie.DetectClauses(sentence.tokens);

      // Type sets for a constituent: anchored entity types (with ancestors),
      // else TIME / NUMBER literals.
      auto types_of = [&](const Constituent& c) {
        std::vector<TypeId> out;
        for (const auto& [span, entity] : anchor_spans[s]) {
          if (span.Overlaps(c.span)) {
            for (TypeId t : repository_->Get(entity).types) {
              for (TypeId anc : types_->AncestorsOf(t)) out.push_back(anc);
            }
            return out;
          }
        }
        for (const TimeMention& tm : sentence.time_mentions) {
          if (tm.span.Overlaps(c.span)) {
            out.push_back(types_->time());
            return out;
          }
        }
        if (c.head >= 0 && sentence.tokens[static_cast<size_t>(c.head)].pos ==
                               PosTag::kCD) {
          out.push_back(types_->number());
          return out;
        }
        // Plain recognized names contribute their coarse NER type, exactly
        // as the paper counts clauses whose arguments are "recognized as
        // either names or time expressions".
        for (const NerMention& m : sentence.ner_mentions) {
          if (!m.span.Contains(c.head)) continue;
          if (auto type = types_->Find(NerTypeName(m.type))) {
            out.push_back(*type);
          }
          break;
        }
        return out;
      };

      for (const Clause& clause : clauses) {
        if (!clause.has_subject) continue;
        auto subject_types = types_of(clause.subject);
        if (subject_types.empty()) continue;
        auto record = [&](const Constituent& arg, const std::string& pattern) {
          auto object_types = types_of(arg);
          if (object_types.empty()) return;
          std::string key = PatternRepository::Normalize(pattern);
          for (TypeId t1 : subject_types) {
            for (TypeId t2 : object_types) {
              ++stats.type_sig_counts_[key][BackgroundStats::TypePairKey(t1, t2)];
              ++stats.type_sig_totals_[key];
            }
          }
        };
        for (const Constituent& obj : clause.objects) {
          record(obj, clause.relation);
        }
        if (clause.complement) record(*clause.complement, clause.relation);
        for (const Constituent& adv : clause.adverbials) {
          record(adv, adv.preposition.empty() ? clause.relation
                                              : clause.relation + " " +
                                                    adv.preposition);
        }
      }
    }
  }

  // Convert entity TFs to TF-IDF sparse vectors. (Terms interned via anchor
  // sentences may not have hit touch_term when a sentence failed to split
  // identically; make the frequency table cover every interned term.)
  stats.doc_freq_.resize(stats.terms_.size(), 0);
  stats.entity_contexts_.resize(repository_->size());
  for (auto& [entity, tf] : entity_tf) {
    SparseVector v;
    for (const auto& [term, freq] : tf) {
      double idf = std::log((1.0 + stats.document_count_) /
                            (1.0 + stats.doc_freq_[term]));
      v.Add(term, freq * idf);
    }
    v.Finalize();
    QKB_CHECK_LT(entity, stats.entity_contexts_.size());  // a repository id
    stats.entity_contexts_[entity] = std::move(v);
  }

  QKB_LOG(Info) << "background stats: " << stats.anchor_counts_.size()
                << " anchored mentions, " << entity_tf.size()
                << " entity contexts, " << stats.type_sig_totals_.size()
                << " relation patterns";
  return stats;
}

}  // namespace qkbfly
