#include "nlp/pipeline.h"

namespace qkbfly {

AnnotatedSentence NlpPipeline::AnnotateSentence(std::string_view sentence) const {
  AnnotatedSentence out;
  out.tokens = tokenizer_.Tokenize(sentence);
  tagger_.Tag(&out.tokens);
  out.time_mentions = time_tagger_.Tag(out.tokens);
  out.ner_mentions = ner_.Tag(out.tokens, out.time_mentions);
  return out;
}

AnnotatedDocument NlpPipeline::Annotate(std::string_view doc_id,
                                        std::string_view title,
                                        std::string_view text) const {
  AnnotatedDocument doc;
  doc.id = std::string(doc_id);
  doc.title = std::string(title);
  for (const std::string& sentence : splitter_.Split(text)) {
    doc.sentences.push_back(AnnotateSentence(sentence));
  }
  return doc;
}

}  // namespace qkbfly
