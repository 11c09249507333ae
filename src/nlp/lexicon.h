// Closed-class word lists and small open-class seed lexicons that drive the
// rule-based POS tagger and pronoun handling. This is the stand-in for the
// trained CoreNLP models the paper uses.
#ifndef QKBFLY_NLP_LEXICON_H_
#define QKBFLY_NLP_LEXICON_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "text/token.h"

namespace qkbfly {

/// Grammatical gender carried by third-person pronouns; also attached to
/// PERSON entities in the repository for the paper's constraint (4).
enum class Gender : uint8_t { kUnknown, kMale, kFemale, kNeuter };

/// Person/number-aware pronoun record.
struct PronounInfo {
  Gender gender = Gender::kUnknown;
  bool plural = false;
  bool possessive = false;  ///< "his", "her", "their", ...
  bool personal_reference = true;  ///< refers to persons ("he") vs things ("it")
};

/// Static English lexicon. All lookups are case-insensitive.
///
/// Every string-keyed lookup has a Symbol-keyed twin that takes the
/// TokenSymbols id of the *lowercased* word (Token::sym). The symbol sets
/// are built in the constructor by interning each word-list entry verbatim,
/// so the two APIs always agree for lowered queries; the hot path (POS
/// tagger, NER) uses the integer-keyed twins and never re-hashes a string.
class Lexicon {
 public:
  /// Returns the process-wide lexicon instance.
  static const Lexicon& Get();

  /// Unambiguous closed-class tag for the word, if it has one.
  std::optional<PosTag> ClosedClassTag(std::string_view word) const;
  std::optional<PosTag> ClosedClassTag(Symbol sym) const;

  /// Pronoun metadata ("he", "she", "they", "his", ...), if the lowered
  /// word is one. Symbol-keyed only: its one caller holds the token.
  std::optional<PronounInfo> GetPronoun(Symbol sym) const;

  /// True for forms of "be" ("is", "was", "been", ...).
  bool IsBeForm(std::string_view word) const;
  bool IsBeForm(Symbol sym) const;

  /// True for auxiliary/copular verbs beyond "be" ("become", "remain", ...)
  /// whose clause pattern is SVC.
  bool IsCopularVerb(std::string_view lemma) const;

  /// True for verbs that license a second (indirect) object -> SVOO
  /// ("give", "award", "donate", ...).
  bool IsDitransitiveVerb(std::string_view lemma) const;

  /// True for known verb lemmas (seed list; morphology handles the rest).
  bool IsKnownVerbLemma(std::string_view lemma) const;

  /// True for words that are predominantly nouns even when verb-shaped
  /// ("band", "film", "award", ...), used by the tagger's tie-breaks.
  bool IsCommonNoun(std::string_view word) const;
  bool IsCommonNoun(Symbol sym) const;

  /// True for words on the adjective seed list.
  bool IsCommonAdjective(std::string_view word) const;
  bool IsCommonAdjective(Symbol sym) const;

  /// True for month names ("January" ... "December").
  bool IsMonthName(std::string_view word) const;
  bool IsMonthName(Symbol sym) const;

  /// True for known verb lemmas keyed by symbol (the lemma's exact spelling
  /// must already be interned; derived lemma strings use the string twin).
  bool IsKnownVerbLemma(Symbol sym) const;

 private:
  Lexicon();

  std::unordered_map<std::string, PosTag> closed_class_;
  std::unordered_set<std::string> be_forms_;
  std::unordered_set<std::string> copular_;
  std::unordered_set<std::string> ditransitive_;
  std::unordered_set<std::string> verb_lemmas_;
  std::unordered_set<std::string> common_nouns_;
  std::unordered_set<std::string> common_adjectives_;
  std::unordered_set<std::string> months_;

  // Symbol-keyed mirrors of the containers above (and of the constructor's
  // pronoun list), interned verbatim at construction. Entries that are not
  // lowercase (e.g. the capitalized nationality adjectives) intern to
  // symbols no lowered token ever maps to, which preserves the string API's
  // behaviour for lowered queries.
  std::unordered_map<Symbol, PosTag> closed_class_sym_;
  std::unordered_map<Symbol, PronounInfo> pronouns_sym_;
  std::unordered_set<Symbol> be_forms_sym_;
  std::unordered_set<Symbol> verb_lemmas_sym_;
  std::unordered_set<Symbol> common_nouns_sym_;
  std::unordered_set<Symbol> common_adjectives_sym_;
  std::unordered_set<Symbol> months_sym_;
};

}  // namespace qkbfly

#endif  // QKBFLY_NLP_LEXICON_H_
