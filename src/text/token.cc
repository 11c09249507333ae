#include "text/token.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace qkbfly {

void EnsureSymbols(std::vector<Token>* tokens) {
  TokenSymbols& symbols = TokenSymbols::Get();
  for (Token& t : *tokens) {
    if (t.sym != kNoSymbol) continue;
    if (t.lower.empty()) t.lower = Lowercase(t.text);
    t.sym = symbols.Intern(t.lower);
  }
}

bool IsVerbTag(PosTag tag) {
  switch (tag) {
    case PosTag::kVB:
    case PosTag::kVBD:
    case PosTag::kVBZ:
    case PosTag::kVBP:
    case PosTag::kVBG:
    case PosTag::kVBN:
      return true;
    default:
      return false;
  }
}

bool IsNounTag(PosTag tag) {
  return tag == PosTag::kNN || tag == PosTag::kNNS || tag == PosTag::kNNP;
}

std::string SpanText(const std::vector<Token>& tokens, const TokenSpan& span) {
  QKB_CHECK_GE(span.begin, 0);
  QKB_CHECK_LE(static_cast<size_t>(span.end), tokens.size());
  std::string out;
  for (int i = span.begin; i < span.end; ++i) {
    if (i > span.begin) out += ' ';
    out += tokens[i].text;
  }
  return out;
}

}  // namespace qkbfly
