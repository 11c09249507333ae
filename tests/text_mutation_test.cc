// Seeded mutation test of the raw-text readers: mutants of real synthetic
// sentences and documents (tests/mutate.h) go through Tokenizer::Tokenize,
// SentenceSplitter::Split and NlpPipeline::Annotate. Labelled `asan`: run it
// under AddressSanitizer with
//   cmake -B build-asan -S . -DQKBFLY_SANITIZE=address && ctest -L asan
// Besides not crashing, every mutant's output keeps the readers' structural
// promises: sentences are non-empty trimmed pieces of the input, tokens are
// non-empty with a lowercase form of the same length, every annotation span
// lies inside its sentence, and a document's annotated sentences carry the
// tokens of its split sentences.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "mutate.h"
#include "nlp/pipeline.h"
#include "synth/dataset.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace qkbfly {
namespace {

const SynthDataset& Dataset() {
  static const SynthDataset* ds = [] {
    DatasetConfig config;
    config.wiki_eval_articles = 6;
    config.news_docs = 6;
    config.wikia_pages = 2;
    config.reverb_sentences = 40;
    return BuildDataset(config).release();
  }();
  return *ds;
}

void ExpectSentences(std::string_view text,
                     const std::vector<std::string>& sentences) {
  for (const std::string& s : sentences) {
    ASSERT_FALSE(s.empty());
    EXPECT_FALSE(std::isspace(static_cast<unsigned char>(s.front())));
    EXPECT_FALSE(std::isspace(static_cast<unsigned char>(s.back())));
    EXPECT_NE(text.find(s), std::string_view::npos);
  }
}

void ExpectTokens(const std::vector<Token>& tokens) {
  for (const Token& t : tokens) {
    EXPECT_FALSE(t.text.empty());
    EXPECT_EQ(t.lower.size(), t.text.size());
  }
}

std::vector<std::string> TokenTexts(const std::vector<Token>& tokens) {
  std::vector<std::string> texts;
  for (const Token& t : tokens) texts.push_back(t.text);
  return texts;
}

void ExpectSpanInside(const TokenSpan& span, size_t tokens) {
  EXPECT_LE(0, span.begin);
  EXPECT_LE(span.begin, span.end);
  EXPECT_LE(span.end, static_cast<int>(tokens));
}

TEST(TextMutationTest, NoMutantBreaksTheTextReaders) {
  const SynthDataset& ds = Dataset();
  const SentenceSplitter splitter;
  const Tokenizer tokenizer;
  const NlpPipeline pipeline(ds.repository.get());

  std::vector<std::string> documents;
  std::vector<std::string> sentences;
  for (const auto* corpus : {&ds.wiki_eval, &ds.news, &ds.wikia, &ds.reverb}) {
    for (const GoldDocument& gd : *corpus) {
      documents.push_back(gd.doc.text);
      for (std::string& s : splitter.Split(gd.doc.text)) {
        sentences.push_back(std::move(s));
      }
    }
  }
  ASSERT_GT(sentences.size(), 100u);

  Rng rng(20261017);
  size_t tokens = 0;
  size_t annotated_sentences = 0;
  constexpr int kRounds = 10000;
  for (int round = 0; round < kRounds; ++round) {
    const std::string mutant =
        Mutate(rng.Choose(sentences), kTextSignificant, rng);
    const std::vector<Token> toks = tokenizer.Tokenize(mutant);
    ExpectTokens(toks);
    tokens += toks.size();
    ExpectSentences(mutant, splitter.Split(mutant));

    const AnnotatedSentence s = pipeline.AnnotateSentence(mutant);
    ExpectTokens(s.tokens);
    for (const NerMention& m : s.ner_mentions) {
      ExpectSpanInside(m.span, s.tokens.size());
    }
    for (const TimeMention& m : s.time_mentions) {
      ExpectSpanInside(m.span, s.tokens.size());
    }

    // One round in twenty mutates a whole document: several edits' worth
    // of boundaries moved, merged or split.
    if (round % 20 != 0) continue;
    const std::string doc_mutant =
        Mutate(rng.Choose(documents), kTextSignificant, rng);
    const AnnotatedDocument doc = pipeline.Annotate("mutant", "", doc_mutant);
    const std::vector<std::string> split = splitter.Split(doc_mutant);
    ExpectSentences(doc_mutant, split);
    ASSERT_EQ(doc.sentences.size(), split.size());
    for (size_t i = 0; i < split.size(); ++i) {
      EXPECT_EQ(TokenTexts(doc.sentences[i].tokens),
                TokenTexts(tokenizer.Tokenize(split[i])));
      ExpectTokens(doc.sentences[i].tokens);
    }
    annotated_sentences += doc.sentences.size();
  }
  std::printf("text mutants: %d sentences (%zu tokens) from %zu seeds, %d "
              "documents (%zu sentences)\n",
              kRounds, tokens, sentences.size(), kRounds / 20,
              annotated_sentences);
  EXPECT_GT(tokens, 0u);
  EXPECT_GT(annotated_sentences, 0u);
}

}  // namespace
}  // namespace qkbfly
