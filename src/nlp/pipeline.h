// The linguistic pre-processing pipeline: sentence splitting, tokenization,
// POS tagging, lemmatization, time tagging and NER — the "Statistics /
// pre-processing" box of the paper's Figure 1. Noun phrases come from the
// dependency parsers' own NP pass, not from this layer.
#ifndef QKBFLY_NLP_PIPELINE_H_
#define QKBFLY_NLP_PIPELINE_H_

#include <string>
#include <string_view>

#include "nlp/annotation.h"
#include "nlp/ner.h"
#include "nlp/pos_tagger.h"
#include "nlp/time_tagger.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace qkbfly {

/// Runs the full annotation stack over raw document text. Thread-compatible:
/// one instance may be shared across threads for read-only annotation.
class NlpPipeline {
 public:
  /// `gazetteer` (optional) lets NER recognize repository entity aliases.
  explicit NlpPipeline(const Gazetteer* gazetteer = nullptr)
      : ner_(gazetteer) {}

  /// Annotates a whole document.
  AnnotatedDocument Annotate(std::string_view doc_id, std::string_view title,
                             std::string_view text) const;

  /// Annotates a single already-split sentence.
  AnnotatedSentence AnnotateSentence(std::string_view sentence) const;

 private:
  SentenceSplitter splitter_;
  Tokenizer tokenizer_;
  PosTagger tagger_;
  TimeTagger time_tagger_;
  NerTagger ner_;
};

}  // namespace qkbfly

#endif  // QKBFLY_NLP_PIPELINE_H_
