// Annotation containers produced by the linguistic pre-processing pipeline
// (the CoreNLP-equivalent layer of Figure 1).
#ifndef QKBFLY_NLP_ANNOTATION_H_
#define QKBFLY_NLP_ANNOTATION_H_

#include <string>
#include <vector>

#include "text/token.h"

namespace qkbfly {

/// Coarse named-entity categories (the paper's five NER types plus NUMBER
/// for literal arguments).
enum class NerType : uint8_t {
  kNone = 0,
  kPerson,
  kOrganization,
  kLocation,
  kMisc,
  kTime,
  kNumber,
};

/// Returns "PERSON", "ORGANIZATION", ... for a NER type.
const char* NerTypeName(NerType type);

/// A named-entity mention: a token span with its coarse type.
struct NerMention {
  TokenSpan span;
  NerType type = NerType::kNone;
};

/// A time expression with its normalized (ISO-ish) value, e.g.
/// "September 19, 2016" -> "2016-09-19", "May 2012" -> "2012-05".
struct TimeMention {
  TokenSpan span;
  std::string normalized;
};

/// One sentence with all layer-1 annotations attached.
struct AnnotatedSentence {
  std::vector<Token> tokens;             ///< Tokenized, POS-tagged, lemmatized.
  std::vector<NerMention> ner_mentions;  ///< Named-entity mentions.
  std::vector<TimeMention> time_mentions;
};

/// A fully annotated document.
struct AnnotatedDocument {
  std::string id;
  std::string title;
  std::vector<AnnotatedSentence> sentences;
};

}  // namespace qkbfly

#endif  // QKBFLY_NLP_ANNOTATION_H_
