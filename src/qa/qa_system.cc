#include "qa/qa_system.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "util/logging.h"
#include "util/string_util.h"

namespace qkbfly {

namespace {

// Lemmatized non-stopword question tokens for the pair features.
std::vector<std::string> QuestionTokens(const NlpPipeline& nlp,
                                        const std::string& text) {
  std::vector<std::string> out;
  AnnotatedSentence s = nlp.AnnotateSentence(text);
  for (const Token& t : s.tokens) {
    if (t.pos == PosTag::kPUNCT || t.pos == PosTag::kDT) continue;
    out.push_back(Lowercase(t.lemma.empty() ? t.text : t.lemma));
  }
  return out;
}

bool SingularQuestion(const std::string& text) {
  // "Who/Where/When ..." without plural markers: single-answer factoid.
  return text.find(" and ") == std::string::npos;
}

}  // namespace

const char* QaModeName(QaMode mode) {
  switch (mode) {
    case QaMode::kFull: return "QKBfly";
    case QaMode::kTriples: return "QKBfly-triples";
    case QaMode::kSentences: return "Sentence-Answers";
    case QaMode::kStaticKb: return "QA-Freebase";
  }
  return "?";
}

QaSystem::QaSystem(const SynthDataset* dataset, const DocumentStore* wiki,
                   const DocumentStore* news,
                   std::vector<StaticFact> snapshot_facts, QaMode mode,
                   int num_threads)
    : dataset_(dataset), wiki_(wiki), news_(news),
      snapshot_facts_(std::move(snapshot_facts)), mode_(mode),
      search_(wiki, news) {
  EngineConfig config;
  config.canon.triples_only = mode == QaMode::kTriples;
  config.canon.confidence_threshold = 0.3;  // recall-oriented (Appendix B)
  config.num_threads = num_threads;
  engine_ = std::make_unique<QkbflyEngine>(dataset->repository.get(),
                                           &dataset->patterns, &dataset->stats,
                                           config);
}

int QaSystem::FeatureId(const std::string& name, bool training) const {
  if (training) return static_cast<int>(features_.Intern(name));
  auto id = features_.Lookup(name);
  return id ? static_cast<int>(*id) : -1;
}

bool QaSystem::TypeAllowed(const QaQuestion& question, NerType coarse) const {
  for (const std::string& type_name : question.expected_types) {
    if (type_name == NerTypeName(coarse)) return true;
    // MISC admits anything non-person (awards, albums, festivals).
    if (type_name == "MISC" &&
        (coarse == NerType::kMisc || coarse == NerType::kOrganization ||
         coarse == NerType::kLocation)) {
      return true;
    }
  }
  return false;
}

std::vector<const Document*> QaSystem::Retrieve(const QaQuestion& question) const {
  // Step 1 (Appendix B): the focus entity's article plus top news hits for
  // the full question text.
  std::vector<const Document*> docs =
      search_.Retrieve(question.focus_entity, SearchEngine::Source::kWikipedia, 2);
  for (const Document* d :
       search_.Retrieve(question.text, SearchEngine::Source::kNews, 10)) {
    if (std::find(docs.begin(), docs.end(), d) == docs.end()) docs.push_back(d);
  }
  return docs;
}

std::vector<QaSystem::Candidate> QaSystem::KbCandidates(
    const QaQuestion& question, const OnTheFlyKb& kb, bool training) const {
  // Candidate = any entity/literal occurring in a fact that also involves
  // the focus entity; features are token pairs (question token, fact token).
  std::vector<std::string> q_tokens =
      QuestionTokens(engine_->nlp(), question.text);

  auto arg_display = [&kb](const FactArg& arg) {
    switch (arg.kind) {
      case FactArg::Kind::kEntity:
        return kb.repository().Get(arg.entity).canonical_name;
      case FactArg::Kind::kEmerging:
        return kb.emerging(arg.emerging).representative;
      case FactArg::Kind::kLiteral:
        return arg.normalized.empty() ? arg.surface : arg.normalized;
    }
    return arg.surface;
  };
  auto arg_coarse = [this, &kb](const FactArg& arg) {
    if (arg.kind == FactArg::Kind::kEntity) {
      return dataset_->repository->CoarseTypeOf(arg.entity);
    }
    return arg.ner;
  };
  auto involves_focus = [&](const Fact& f) {
    auto matches = [&](const FactArg& arg) {
      return EqualsIgnoreCase(arg_display(arg), question.focus_entity) ||
             EqualsIgnoreCase(arg.surface, question.focus_entity);
    };
    if (matches(f.subject)) return true;
    for (const FactArg& a : f.args) {
      if (matches(a)) return true;
    }
    return false;
  };

  std::unordered_map<std::string, Candidate> by_name;
  for (const Fact& f : kb.facts()) {
    if (!involves_focus(f)) continue;
    // Pair features use the relation words; argument names feed a
    // generalizing overlap count below (how many question tokens the fact's
    // arguments cover — the ternary fact for "Who played X in Y?" covers
    // both X and Y, the bare triple only one).
    std::vector<std::string> fact_tokens =
        SplitWhitespace(Lowercase(kb.RelationName(f.relation)));
    std::set<std::string> fact_arg_words;
    for (const std::string& word :
         SplitWhitespace(Lowercase(arg_display(f.subject)))) {
      fact_arg_words.insert(word);
    }
    for (const FactArg& a : f.args) {
      for (const std::string& word : SplitWhitespace(Lowercase(arg_display(a)))) {
        fact_arg_words.insert(word);
      }
    }
    int overlap = 0;
    for (const std::string& qt : q_tokens) {
      if (fact_arg_words.count(qt) > 0) ++overlap;
    }
    auto consider = [&](const FactArg& arg) {
      std::string name = arg_display(arg);
      if (EqualsIgnoreCase(name, question.focus_entity)) return;
      NerType coarse = arg_coarse(arg);
      if (!TypeAllowed(question, coarse)) return;
      auto [it, inserted] = by_name.try_emplace(name);
      if (inserted) {
        it->second.name = name;
        it->second.coarse = coarse;
      }
      for (const std::string& qt : q_tokens) {
        for (const std::string& ft : fact_tokens) {
          int id = FeatureId(qt + "|" + ft, training);
          if (id >= 0) it->second.features.Add(static_cast<uint32_t>(id), 1.0);
        }
      }
      int overlap_id = FeatureId("argoverlap", training);
      if (overlap_id >= 0 && overlap > 0) {
        it->second.features.Add(static_cast<uint32_t>(overlap_id),
                                static_cast<double>(overlap));
      }
    };
    consider(f.subject);
    for (const FactArg& a : f.args) consider(a);
  }

  std::vector<Candidate> out;
  for (auto& [name, c] : by_name) {
    c.features.Finalize();
    out.push_back(std::move(c));
  }
  // by_name iterates in hash order; candidate order decides score ties all
  // the way to the reported answer, so canonicalize by name.
  std::sort(out.begin(), out.end(),
            [](const Candidate& a, const Candidate& b) { return a.name < b.name; });
  return out;
}

std::vector<QaSystem::Candidate> QaSystem::SentenceCandidates(
    const QaQuestion& question, bool training) const {
  // Passage-retrieval baseline: entities co-occurring with the focus entity
  // in a retrieved sentence; features are the sentence tokens.
  std::vector<std::string> q_tokens =
      QuestionTokens(engine_->nlp(), question.text);
  std::unordered_map<std::string, Candidate> by_name;
  for (const Document* doc : Retrieve(question)) {
    AnnotatedDocument annotated =
        engine_->nlp().Annotate(doc->id, doc->title, doc->text);
    for (const AnnotatedSentence& s : annotated.sentences) {
      bool has_focus = false;
      for (const NerMention& m : s.ner_mentions) {
        std::string surface = SpanText(s.tokens, m.span);
        if (EqualsIgnoreCase(surface, question.focus_entity)) has_focus = true;
      }
      if (!has_focus) continue;
      for (const NerMention& m : s.ner_mentions) {
        std::string surface = SpanText(s.tokens, m.span);
        if (EqualsIgnoreCase(surface, question.focus_entity)) continue;
        NerType coarse = m.type;
        if (!TypeAllowed(question, coarse)) continue;
        // Normalize times for comparison with gold.
        for (const TimeMention& tm : s.time_mentions) {
          if (tm.span == m.span) surface = tm.normalized;
        }
        auto [it, inserted] = by_name.try_emplace(surface);
        if (inserted) {
          it->second.name = surface;
          it->second.coarse = coarse;
        }
        for (const std::string& qt : q_tokens) {
          for (const Token& t : s.tokens) {
            if (t.pos == PosTag::kPUNCT || t.pos == PosTag::kDT) continue;
            int id = FeatureId(
                qt + "|" + Lowercase(t.lemma.empty() ? t.text : t.lemma),
                training);
            if (id >= 0) it->second.features.Add(static_cast<uint32_t>(id), 1.0);
          }
        }
      }
    }
  }
  std::vector<Candidate> out;
  for (auto& [name, c] : by_name) {
    c.features.Finalize();
    out.push_back(std::move(c));
  }
  // by_name iterates in hash order; candidate order decides score ties all
  // the way to the reported answer, so canonicalize by name.
  std::sort(out.begin(), out.end(),
            [](const Candidate& a, const Candidate& b) { return a.name < b.name; });
  return out;
}

std::vector<QaSystem::Candidate> QaSystem::StaticCandidates(
    const QaQuestion& question, bool training) const {
  // Static-KB baseline: facts of the snapshot KB only.
  std::vector<std::string> q_tokens =
      QuestionTokens(engine_->nlp(), question.text);
  std::unordered_map<std::string, Candidate> by_name;
  for (const StaticFact& f : snapshot_facts_) {
    bool involves = EqualsIgnoreCase(f.subject, question.focus_entity);
    for (const std::string& a : f.args) {
      if (EqualsIgnoreCase(a, question.focus_entity)) involves = true;
    }
    if (!involves) continue;
    auto consider = [&](const std::string& name) {
      if (EqualsIgnoreCase(name, question.focus_entity)) return;
      // Coarse type via the repository when known.
      NerType coarse = NerType::kMisc;
      if (auto id = dataset_->repository->FindByName(name); id.ok()) {
        coarse = dataset_->repository->CoarseTypeOf(*id);
      } else if (!name.empty() && std::isdigit(static_cast<unsigned char>(name[0]))) {
        coarse = NerType::kTime;
      }
      if (!TypeAllowed(question, coarse)) return;
      auto [it, inserted] = by_name.try_emplace(name);
      if (inserted) {
        it->second.name = name;
        it->second.coarse = coarse;
      }
      for (const std::string& qt : q_tokens) {
        for (const std::string& rt : SplitWhitespace(Lowercase(f.relation))) {
          int id = FeatureId(qt + "|" + rt, training);
          if (id >= 0) it->second.features.Add(static_cast<uint32_t>(id), 1.0);
        }
      }
    };
    consider(f.subject);
    for (const std::string& a : f.args) consider(a);
  }
  std::vector<Candidate> out;
  for (auto& [name, c] : by_name) {
    c.features.Finalize();
    out.push_back(std::move(c));
  }
  // by_name iterates in hash order; candidate order decides score ties all
  // the way to the reported answer, so canonicalize by name.
  std::sort(out.begin(), out.end(),
            [](const Candidate& a, const Candidate& b) { return a.name < b.name; });
  return out;
}

std::vector<QaSystem::Candidate> QaSystem::Candidates(const QaQuestion& question,
                                                      bool training) const {
  switch (mode_) {
    case QaMode::kSentences:
      return SentenceCandidates(question, training);
    case QaMode::kStaticKb:
      return StaticCandidates(question, training);
    case QaMode::kFull:
    case QaMode::kTriples:
      break;
  }
  // Steps 1-2: retrieve and build the question-specific KB.
  OnTheFlyKb kb = engine_->BuildKb(Retrieve(question));
  return KbCandidates(question, kb, training);
}

Status QaSystem::Train(const std::vector<QaQuestion>& training_questions) {
  std::vector<LabeledExample> examples;
  for (const QaQuestion& q : training_questions) {
    for (Candidate& c : Candidates(q, /*training=*/true)) {
      LabeledExample ex;
      ex.features = std::move(c.features);
      ex.label = false;
      for (const std::string& gold : q.gold_answers) {
        if (EqualsIgnoreCase(gold, c.name)) ex.label = true;
      }
      examples.push_back(std::move(ex));
    }
  }
  if (examples.empty()) {
    return Status::FailedPrecondition("no training candidates");
  }
  QKB_LOG(Info) << QaModeName(mode_) << ": training on " << examples.size()
                << " QA candidates";
  return classifier_.Train(examples);
}

std::vector<std::string> QaSystem::Answer(const QaQuestion& question) const {
  QKB_CHECK(classifier_.trained());
  auto candidates = Candidates(question, /*training=*/false);
  struct Scored {
    double score;
    const Candidate* c;
  };
  std::vector<Scored> scored;
  for (const Candidate& c : candidates) {
    scored.push_back({classifier_.Decision(c.features), &c});
  }
  // stable: candidates arrive name-sorted, so score ties resolve by name
  // instead of by whatever order the non-stable sort leaves them in.
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) { return a.score > b.score; });
  std::vector<std::string> answers;
  for (const Scored& s : scored) {
    if (s.score > 0.0) answers.push_back(s.c->name);
  }
  if (answers.empty()) return answers;
  if (SingularQuestion(question.text)) answers.resize(1);
  return answers;
}

std::vector<std::string> AqquAnswer(
    const QaQuestion& question, const std::vector<QaSystem::StaticFact>& facts) {
  // Template-based semantic parsing: keyword -> relation, then a lookup.
  static const std::vector<std::pair<const char*, const char*>> kKeywords = {
      {"marry", "marry"},       {"divorce", "divorce from"},
      {"born", "born in"},      {"play for", "play for"},
      {"join", "join"},         {"award", "win"},
      {"charity", "support"},   {"study", "study at"},
      {"album", "release"},     {"perform", "perform at"},
      {"live", "live in"},      {"direct", "direct"},
      {"accuse", "accuse of"},  {"shot", "shoot"},
      {"found", "found"},       {"coach", "coach"},
  };
  std::string lower = Lowercase(question.text);
  std::string relation;
  for (const auto& [keyword, rel] : kKeywords) {
    if (lower.find(keyword) != std::string::npos) {
      relation = rel;
      break;
    }
  }
  std::vector<std::string> answers;
  if (relation.empty()) return answers;
  bool focus_is_subject = question.text.find("{") == std::string::npos &&
                          !StartsWith(question.text, "Who ");
  for (const QaSystem::StaticFact& f : facts) {
    if (!StartsWith(f.relation, relation) &&
        !StartsWith(relation, f.relation)) {
      continue;
    }
    if (focus_is_subject && EqualsIgnoreCase(f.subject, question.focus_entity)) {
      if (!f.args.empty()) answers.push_back(f.args.front());
    } else if (!focus_is_subject) {
      for (const std::string& a : f.args) {
        if (EqualsIgnoreCase(a, question.focus_entity)) {
          answers.push_back(f.subject);
        }
      }
    }
  }
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  if (answers.size() > 1) answers.resize(1);
  return answers;
}

}  // namespace qkbfly
