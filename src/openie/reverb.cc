#include "openie/reverb.h"

#include "util/string_util.h"

namespace qkbfly {

namespace {

// Noun-phrase span ending at or before `end` (exclusive), scanning left.
bool NpLeftOf(const std::vector<Token>& tokens, int end, TokenSpan* span) {
  int i = end - 1;
  while (i >= 0 && tokens[static_cast<size_t>(i)].pos == PosTag::kPUNCT) --i;
  if (i < 0) return false;
  PosTag t = tokens[static_cast<size_t>(i)].pos;
  if (!IsNounTag(t) && t != PosTag::kPRP && t != PosTag::kCD) return false;
  int hi = i + 1;
  while (i >= 0) {
    PosTag ti = tokens[static_cast<size_t>(i)].pos;
    if (IsNounTag(ti) || ti == PosTag::kJJ || ti == PosTag::kCD ||
        ti == PosTag::kDT || ti == PosTag::kPRPS) {
      --i;
    } else {
      break;
    }
  }
  span->begin = i + 1;
  span->end = hi;
  return span->begin < span->end;
}

// Noun-phrase span starting at or after `begin`, scanning right; must start
// within two tokens.
bool NpRightOf(const std::vector<Token>& tokens, int begin, TokenSpan* span) {
  const int n = static_cast<int>(tokens.size());
  int i = begin;
  int skipped = 0;
  while (i < n && skipped < 2) {
    PosTag t = tokens[static_cast<size_t>(i)].pos;
    if (IsNounTag(t) || t == PosTag::kPRP || t == PosTag::kCD ||
        t == PosTag::kDT || t == PosTag::kJJ || t == PosTag::kPRPS ||
        t == PosTag::kSYM) {
      break;
    }
    ++i;
    ++skipped;
  }
  if (i >= n) return false;
  int start = i;
  while (i < n) {
    PosTag t = tokens[static_cast<size_t>(i)].pos;
    if (IsNounTag(t) || t == PosTag::kPRP || t == PosTag::kCD ||
        t == PosTag::kDT || t == PosTag::kJJ || t == PosTag::kPRPS ||
        t == PosTag::kSYM) {
      ++i;
    } else {
      break;
    }
  }
  if (i == start) return false;
  // Require a nominal head inside.
  bool has_head = false;
  for (int k = start; k < i; ++k) {
    PosTag t = tokens[static_cast<size_t>(k)].pos;
    if (IsNounTag(t) || t == PosTag::kPRP || t == PosTag::kCD) has_head = true;
  }
  if (!has_head) return false;
  span->begin = start;
  span->end = i;
  return true;
}

}  // namespace

std::vector<Proposition> ReverbExtractor::Extract(
    const std::vector<Token>& tokens) const {
  std::vector<Proposition> props;
  const int n = static_cast<int>(tokens.size());
  int i = 0;
  while (i < n) {
    if (!IsVerbTag(tokens[static_cast<size_t>(i)].pos)) {
      ++i;
      continue;
    }
    // Relation phrase: V (RB)? (NP-internal W*)? (IN|TO)? — ReVerb's longest
    // match of V | V P | V W* P.
    int verb_start = i;
    int j = i;
    while (j < n && (IsVerbTag(tokens[static_cast<size_t>(j)].pos) ||
                     tokens[static_cast<size_t>(j)].pos == PosTag::kRB)) {
      ++j;
    }
    int relation_end = j;
    // Optional light-word run then preposition.
    int k = j;
    int words = 0;
    while (k < n && words < 3) {
      PosTag t = tokens[static_cast<size_t>(k)].pos;
      if (t == PosTag::kIN || t == PosTag::kTO) {
        relation_end = k + 1;
        break;
      }
      // ReVerb allows nouns/adjectives inside the relation phrase only when
      // followed by a preposition ("filed for divorce from").
      if (IsNounTag(t) || t == PosTag::kJJ || t == PosTag::kDT) {
        ++k;
        ++words;
        continue;
      }
      break;
    }

    TokenSpan arg1;
    TokenSpan arg2;
    if (NpLeftOf(tokens, verb_start, &arg1) &&
        NpRightOf(tokens, relation_end, &arg2)) {
      Proposition p;
      // Relation string: lemmatized first verb plus the remaining surface
      // words lowercased.
      std::string relation = tokens[static_cast<size_t>(verb_start)].lemma;
      for (int t = verb_start + 1; t < relation_end; ++t) {
        if (tokens[static_cast<size_t>(t)].pos == PosTag::kRB) continue;
        relation += ' ';
        relation += Lowercase(tokens[static_cast<size_t>(t)].text);
      }
      p.relation = relation;
      p.subject.span = arg1;
      p.subject.head = arg1.end - 1;
      p.subject.text = SpanText(tokens, arg1);
      PropositionArg obj;
      obj.span = arg2;
      obj.head = arg2.end - 1;
      obj.text = SpanText(tokens, arg2);
      p.args.push_back(std::move(obj));
      props.push_back(std::move(p));
    }
    i = relation_end > i ? relation_end : i + 1;
  }
  return props;
}

}  // namespace qkbfly
