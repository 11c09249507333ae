#include "nlp/lexicon.h"

#include "util/string_util.h"

namespace qkbfly {

namespace {

void AddAll(std::unordered_map<std::string, PosTag>* map,
            std::initializer_list<const char*> words, PosTag tag) {
  for (const char* w : words) (*map)[w] = tag;
}

}  // namespace

const Lexicon& Lexicon::Get() {
  static const Lexicon* lexicon = new Lexicon();
  return *lexicon;
}

Lexicon::Lexicon() {
  AddAll(&closed_class_,
         {"the", "a", "an", "this", "that", "these", "those", "every", "each",
          "some", "any", "no", "both", "all", "another"},
         PosTag::kDT);
  AddAll(&closed_class_,
         {"in", "on", "at", "by", "for", "with", "from", "of", "about",
          "against", "between", "into", "through", "during", "before", "after",
          "above", "below", "under", "over", "near", "since", "until", "within",
          "without", "despite", "because", "although", "while", "if", "as",
          "than", "like", "per", "via", "amid", "toward", "towards", "upon"},
         PosTag::kIN);
  AddAll(&closed_class_,
         {"and", "or", "but", "nor", "yet", "so"}, PosTag::kCC);
  AddAll(&closed_class_,
         {"can", "could", "may", "might", "must", "shall", "should", "will",
          "would"},
         PosTag::kMD);
  AddAll(&closed_class_, {"who", "whom", "what"}, PosTag::kWP);
  AddAll(&closed_class_, {"which", "whose"}, PosTag::kWDT);
  AddAll(&closed_class_, {"where", "when", "why", "how"}, PosTag::kWRB);
  AddAll(&closed_class_, {"there"}, PosTag::kEX);
  AddAll(&closed_class_, {"to"}, PosTag::kTO);
  AddAll(&closed_class_,
         {"not", "also", "very", "now", "then", "later", "soon", "recently",
          "already", "still", "often", "never", "always", "again", "once",
          "twice", "here", "too", "currently", "previously", "eventually",
          "together", "instead", "meanwhile", "n't", "subsequently", "shortly",
          "publicly", "officially", "reportedly", "formerly"},
         PosTag::kRB);

  // Pronouns. "her" is ambiguous (PRP/PRP$); we record it as possessive and
  // let the tagger's context rules decide. Pronouns are looked up by symbol
  // only, so the string-keyed list lives just long enough to be interned.
  std::unordered_map<std::string, PronounInfo> pronouns;
  auto add_pronoun = [this, &pronouns](const char* word, Gender g, bool plural,
                                       bool possessive, bool personal) {
    pronouns[word] = PronounInfo{g, plural, possessive, personal};
    closed_class_[word] = possessive ? PosTag::kPRPS : PosTag::kPRP;
  };
  add_pronoun("he", Gender::kMale, false, false, true);
  add_pronoun("him", Gender::kMale, false, false, true);
  add_pronoun("his", Gender::kMale, false, true, true);
  add_pronoun("himself", Gender::kMale, false, false, true);
  add_pronoun("she", Gender::kFemale, false, false, true);
  add_pronoun("her", Gender::kFemale, false, true, true);
  add_pronoun("hers", Gender::kFemale, false, true, true);
  add_pronoun("herself", Gender::kFemale, false, false, true);
  add_pronoun("it", Gender::kNeuter, false, false, false);
  add_pronoun("its", Gender::kNeuter, false, true, false);
  add_pronoun("itself", Gender::kNeuter, false, false, false);
  add_pronoun("they", Gender::kUnknown, true, false, true);
  add_pronoun("them", Gender::kUnknown, true, false, true);
  add_pronoun("their", Gender::kUnknown, true, true, true);
  add_pronoun("theirs", Gender::kUnknown, true, true, true);
  add_pronoun("we", Gender::kUnknown, true, false, true);
  add_pronoun("us", Gender::kUnknown, true, false, true);
  add_pronoun("our", Gender::kUnknown, true, true, true);
  add_pronoun("i", Gender::kUnknown, false, false, true);
  add_pronoun("me", Gender::kUnknown, false, false, true);
  add_pronoun("my", Gender::kUnknown, false, true, true);
  add_pronoun("you", Gender::kUnknown, false, false, true);
  add_pronoun("your", Gender::kUnknown, false, true, true);

  be_forms_ = {"be", "am", "is", "are", "was", "were", "been", "being"};

  copular_ = {"be", "become", "remain", "seem", "appear", "stay", "turn"};

  ditransitive_ = {"give",  "award", "donate", "send",  "offer", "hand",
                   "grant", "pay",   "owe",    "teach", "tell",  "show",
                   "bring", "sell",  "lend",   "present"};

  verb_lemmas_ = {
      "be",      "have",     "do",       "say",      "go",       "get",
      "make",    "know",     "think",    "take",     "see",      "come",
      "want",    "look",     "use",      "find",     "give",     "tell",
      "work",    "call",     "try",      "ask",      "need",     "feel",
      "become",  "leave",    "put",      "mean",     "keep",     "let",
      "begin",   "show",     "hear",     "play",     "run",      "move",
      "live",    "believe",  "hold",     "bring",    "happen",   "write",
      "provide", "sit",      "stand",    "lose",     "pay",      "meet",
      "include", "continue", "set",      "learn",    "change",   "lead",
      "watch",   "follow",   "stop",     "create",   "speak",    "read",
      "spend",   "grow",     "open",     "walk",     "win",      "offer",
      "remember","appear",   "buy",      "wait",     "serve",    "die",
      "send",    "expect",   "build",    "stay",     "fall",     "cut",
      "reach",   "kill",     "remain",   "suggest",  "raise",    "pass",
      "sell",    "require",  "report",   "decide",   "marry",    "divorce",
      "act",     "star",     "perform",  "direct",   "produce",  "release",
      "record",  "sign",     "join",     "found",    "establish","launch",
      "acquire", "receive",  "award",    "donate",   "accuse",   "shoot",
      "attack",  "arrest",   "charge",   "sue",      "file",     "announce",
      "reveal",  "confirm",  "deny",     "support",  "oppose",   "defeat",
      "beat",    "score",    "transfer", "coach",    "manage",   "retire",
      "resign",  "elect",    "appoint",  "nominate", "graduate", "study",
      "teach",   "publish",  "invent",   "discover", "develop",  "design",
      "compose", "adopt",    "bear",     "name",     "visit",    "travel",
      "return",  "arrive",   "attend",   "host",     "organize", "cancel",
      "postpone","injure",   "damage",   "destroy",  "rescue",   "save",
      "forget",  "celebrate","premiere", "debut",    "feature",  "portray",
      "grope",   "collaborate", "date",  "engage",   "split",    "wed",
  };

  common_nouns_ = {
      "band",     "film",      "movie",    "award",    "prize",     "album",
      "song",     "actor",     "actress",  "singer",   "player",    "team",
      "club",     "city",      "country",  "company",  "university","school",
      "president","minister",  "director", "producer", "writer",    "author",
      "scientist","politician","athlete",  "footballer","musician", "artist",
      "wife",     "husband",   "ex-wife",  "ex-husband","father",   "mother",
      "son",      "daughter",  "child",    "children", "brother",   "sister",
      "friend",   "partner",   "spouse",   "role",     "character", "series",
      "season",   "episode",   "concert",  "tour",     "ceremony",  "event",
      "attack",   "election",  "match",    "game",     "goal",      "year",
      "month",    "day",       "time",     "people",   "man",       "woman",
      "fan",      "critic",    "report",   "news",     "statement", "interview",
      "divorce",  "marriage",  "wedding",  "birth",    "death",     "career",
      "studio",   "label",     "charity",  "foundation","campaign", "organization",
      "government","police",   "court",    "judge",    "lawyer",    "officer",
      "coach",    "manager",   "chairman", "founder",  "leader",    "member",
      "star",     "celebrity", "couple",   "family",   "home",      "house",
      "airplane", "plane",     "stadium",  "theater",  "festival",  "gala",
      "premiere", "debut",     "lyric",    "lyrics",   "stage",     "venue",
      "fortune",  "money",     "deal",     "contract", "lawsuit",   "charge",
      "mountaineer", "warrior", "physicist", "chemist", "economist", "novelist",
  };

  common_adjectives_ = {
      "new",      "old",      "young",   "first",    "last",     "next",
      "good",     "great",    "big",     "small",    "long",     "short",
      "high",     "low",      "early",   "late",     "recent",   "former",
      "famous",   "popular",  "American","British",  "French",   "German",
      "best",     "worst",    "top",     "major",    "minor",    "several",
      "many",     "few",      "second",  "third",    "final",    "original",
      "critical", "commercial","successful", "married", "divorced", "born",
      "professional", "international", "national", "local", "public", "private",
  };

  months_ = {"january",   "february", "march",    "april",   "may",
             "june",      "july",     "august",   "september","october",
             "november",  "december"};

  // Build the symbol-keyed mirrors. Interning each entry verbatim keeps the
  // two APIs in exact agreement for lowered queries (a capitalized entry's
  // symbol can never collide with a lowered token's symbol).
  TokenSymbols& symbols = TokenSymbols::Get();
  for (const auto& [word, tag] : closed_class_) {
    closed_class_sym_[symbols.Intern(word)] = tag;
  }
  for (const auto& [word, info] : pronouns) {
    pronouns_sym_[symbols.Intern(word)] = info;
  }
  for (const std::string& w : be_forms_) be_forms_sym_.insert(symbols.Intern(w));
  for (const std::string& w : verb_lemmas_) {
    verb_lemmas_sym_.insert(symbols.Intern(w));
  }
  for (const std::string& w : common_nouns_) {
    common_nouns_sym_.insert(symbols.Intern(w));
  }
  for (const std::string& w : common_adjectives_) {
    common_adjectives_sym_.insert(symbols.Intern(w));
  }
  for (const std::string& w : months_) months_sym_.insert(symbols.Intern(w));
}

std::optional<PosTag> Lexicon::ClosedClassTag(std::string_view word) const {
  auto it = closed_class_.find(Lowercase(word));
  if (it == closed_class_.end()) return std::nullopt;
  return it->second;
}

std::optional<PosTag> Lexicon::ClosedClassTag(Symbol sym) const {
  auto it = closed_class_sym_.find(sym);
  if (it == closed_class_sym_.end()) return std::nullopt;
  return it->second;
}

std::optional<PronounInfo> Lexicon::GetPronoun(Symbol sym) const {
  auto it = pronouns_sym_.find(sym);
  if (it == pronouns_sym_.end()) return std::nullopt;
  return it->second;
}

bool Lexicon::IsBeForm(std::string_view word) const {
  return be_forms_.count(Lowercase(word)) > 0;
}

bool Lexicon::IsBeForm(Symbol sym) const {
  return be_forms_sym_.count(sym) > 0;
}

bool Lexicon::IsCopularVerb(std::string_view lemma) const {
  return copular_.count(Lowercase(lemma)) > 0;
}

bool Lexicon::IsDitransitiveVerb(std::string_view lemma) const {
  return ditransitive_.count(Lowercase(lemma)) > 0;
}

bool Lexicon::IsKnownVerbLemma(std::string_view lemma) const {
  return verb_lemmas_.count(Lowercase(lemma)) > 0;
}

bool Lexicon::IsCommonNoun(std::string_view word) const {
  return common_nouns_.count(Lowercase(word)) > 0;
}

bool Lexicon::IsCommonNoun(Symbol sym) const {
  return common_nouns_sym_.count(sym) > 0;
}

bool Lexicon::IsCommonAdjective(std::string_view word) const {
  if (common_adjectives_.count(std::string(word)) > 0) return true;
  return common_adjectives_.count(Lowercase(word)) > 0;
}

bool Lexicon::IsCommonAdjective(Symbol sym) const {
  return common_adjectives_sym_.count(sym) > 0;
}

bool Lexicon::IsMonthName(std::string_view word) const {
  return months_.count(Lowercase(word)) > 0;
}

bool Lexicon::IsMonthName(Symbol sym) const {
  return months_sym_.count(sym) > 0;
}

bool Lexicon::IsKnownVerbLemma(Symbol sym) const {
  return verb_lemmas_sym_.count(sym) > 0;
}

}  // namespace qkbfly
