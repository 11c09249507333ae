// Core token and span types shared by the whole annotation stack.
#ifndef QKBFLY_TEXT_TOKEN_H_
#define QKBFLY_TEXT_TOKEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/symbol_table.h"

namespace qkbfly {

/// Penn-Treebank-flavoured part-of-speech tags (the subset the downstream
/// parser and clause detector rely on).
enum class PosTag : uint8_t {
  kNN,    // common noun, singular
  kNNS,   // common noun, plural
  kNNP,   // proper noun
  kVB,    // verb, base form
  kVBD,   // verb, past tense
  kVBZ,   // verb, 3rd person singular present
  kVBP,   // verb, non-3rd person present
  kVBG,   // verb, gerund
  kVBN,   // verb, past participle
  kMD,    // modal
  kDT,    // determiner
  kIN,    // preposition / subordinating conjunction
  kTO,    // "to"
  kPRP,   // personal pronoun
  kPRPS,  // possessive pronoun (PRP$)
  kJJ,    // adjective
  kRB,    // adverb
  kCC,    // coordinating conjunction
  kCD,    // cardinal number
  kPOS,   // possessive marker ('s)
  kWP,    // wh-pronoun (who, what)
  kWDT,   // wh-determiner (which, that)
  kWRB,   // wh-adverb (where, when)
  kEX,    // existential "there"
  kPUNCT, // punctuation
  kSYM,   // currency and other symbols
  kUNK,   // untagged
};

/// True for any of the verb tags (VB, VBD, VBZ, VBP, VBG, VBN).
bool IsVerbTag(PosTag tag);

/// True for any of the noun tags (NN, NNS, NNP).
bool IsNounTag(PosTag tag);

/// One surface token plus its (later-filled) annotations.
struct Token {
  std::string text;        ///< Surface form as it appeared in the input.
  std::string lower;       ///< Lowercased surface (filled by the tokenizer).
  std::string lemma;       ///< Lemmatized form (filled by the lemmatizer).
  PosTag pos = PosTag::kUNK;

  /// TokenSymbols id of `lower`, interned once by the tokenizer so POS
  /// tagging, NER cue lookups and the gazetteer trie walk are all
  /// integer-keyed. kNoSymbol on hand-built tokens; consumers that need it
  /// call EnsureSymbols() first.
  Symbol sym = kNoSymbol;
};

/// Fills `lower` and `sym` for any token that does not have them yet
/// (hand-built tokens in tests, fixtures predating the interned pipeline).
/// Idempotent; tokens produced by Tokenizer are already filled.
void EnsureSymbols(std::vector<Token>* tokens);

/// Half-open token-index range [begin, end) within one sentence.
struct TokenSpan {
  int begin = 0;
  int end = 0;

  int size() const { return end - begin; }
  bool empty() const { return end <= begin; }
  bool Contains(int index) const { return index >= begin && index < end; }
  bool Overlaps(const TokenSpan& other) const {
    return begin < other.end && other.begin < end;
  }
  bool operator==(const TokenSpan& other) const {
    return begin == other.begin && end == other.end;
  }
};

/// Joins the surface forms of tokens[span] with single spaces.
std::string SpanText(const std::vector<Token>& tokens, const TokenSpan& span);

}  // namespace qkbfly

#endif  // QKBFLY_TEXT_TOKEN_H_
