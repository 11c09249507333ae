#include <cctype>
#include <cstddef>

#include "lint/lint.h"

namespace qkbfly::lint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Extracts rule names from a `qkbfly-lint: allow(D1,C3)` marker, if any.
std::vector<std::string> ParseAllowMarker(std::string_view comment) {
  std::vector<std::string> rules;
  size_t at = comment.find("qkbfly-lint:");
  if (at == std::string_view::npos) return rules;
  size_t open = comment.find("allow(", at);
  if (open == std::string_view::npos) return rules;
  size_t close = comment.find(')', open);
  if (close == std::string_view::npos) return rules;
  std::string current;
  for (size_t i = open + 6; i < close; ++i) {
    char c = comment[i];
    if (c == ',' || c == ' ') {
      if (!current.empty()) rules.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) rules.push_back(current);
  return rules;
}

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  LexedFile Run() {
    while (pos_ < src_.size()) {
      Step();
    }
    for (const Comment& c : out_.comments) {
      for (const std::string& rule : ParseAllowMarker(c.text)) {
        out_.allowed[c.line].insert(rule);
        // A comment on its own line covers the statement below it.
        if (c.own_line) out_.allowed[c.line + 1].insert(rule);
      }
    }
    return out_;
  }

 private:
  char At(size_t i) const { return i < src_.size() ? src_[i] : '\0'; }
  char Cur() const { return At(pos_); }
  char Next() const { return At(pos_ + 1); }

  void Step() {
    char c = Cur();
    // Line continuation.
    if (c == '\\' && (Next() == '\n' || (Next() == '\r' && At(pos_ + 2) == '\n'))) {
      pos_ += Next() == '\r' ? 3 : 2;
      ++line_;
      return;
    }
    if (c == '\n') {
      ++pos_;
      ++line_;
      line_has_code_ = false;
      in_preproc_ = false;  // a continuation never reaches this branch
      return;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++pos_;
      return;
    }
    if (c == '/' && Next() == '/') {
      LexLineComment();
      return;
    }
    if (c == '/' && Next() == '*') {
      LexBlockComment();
      return;
    }
    if (c == '#' && !line_has_code_ && !in_preproc_) {
      in_preproc_ = true;
      ++pos_;
      Emit(Token::Kind::kPunct, "#");
      return;
    }
    if (c == 'R' && Next() == '"' && !InIdent()) {
      LexRawString();
      return;
    }
    if (c == '"') {
      LexString('"', Token::Kind::kString);
      return;
    }
    if (c == '\'') {
      LexString('\'', Token::Kind::kChar);
      return;
    }
    if (IsIdentStart(c)) {
      LexIdent();
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      LexNumber();
      return;
    }
    LexPunct();
  }

  bool InIdent() const {
    return pos_ > 0 && IsIdentChar(src_[pos_ - 1]);
  }

  void Emit(Token::Kind kind, std::string text) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.line = line_;
    t.preproc = in_preproc_;
    line_has_code_ = true;
    out_.tokens.push_back(std::move(t));
  }

  void LexLineComment() {
    size_t start = pos_ + 2;
    size_t end = start;
    while (end < src_.size() && src_[end] != '\n') {
      // A continuation glues the next line onto this comment.
      if (src_[end] == '\\' && end + 1 < src_.size() && src_[end + 1] == '\n') {
        break;
      }
      ++end;
    }
    Comment c;
    c.line = line_;
    c.own_line = !line_has_code_;
    c.text = std::string(src_.substr(start, end - start));
    out_.comments.push_back(std::move(c));
    pos_ = end;
  }

  void LexBlockComment() {
    int start_line = line_;
    bool own_line = !line_has_code_;
    size_t start = pos_ + 2;
    size_t end = start;
    while (end + 1 < src_.size() &&
           !(src_[end] == '*' && src_[end + 1] == '/')) {
      if (src_[end] == '\n') ++line_;
      ++end;
    }
    Comment c;
    c.line = start_line;
    c.own_line = own_line;
    c.text = std::string(src_.substr(start, end - start));
    out_.comments.push_back(std::move(c));
    pos_ = end + 1 < src_.size() ? end + 2 : src_.size();
  }

  void LexRawString() {
    // R"delim( ... )delim"
    size_t open = pos_ + 2;
    std::string delim;
    size_t i = open;
    while (i < src_.size() && src_[i] != '(') delim += src_[i++];
    std::string closer = ")" + delim + "\"";
    size_t end = src_.find(closer, i);
    size_t stop = end == std::string_view::npos ? src_.size()
                                                : end + closer.size();
    for (size_t j = pos_; j < stop; ++j) {
      if (src_[j] == '\n') ++line_;
    }
    Emit(Token::Kind::kString, "\"\"");
    pos_ = stop;
  }

  void LexString(char quote, Token::Kind kind) {
    size_t i = pos_ + 1;
    while (i < src_.size() && src_[i] != quote) {
      if (src_[i] == '\\' && i + 1 < src_.size()) {
        ++i;
      } else if (src_[i] == '\n') {
        break;  // unterminated; be forgiving
      }
      ++i;
    }
    size_t stop = i < src_.size() ? i + 1 : src_.size();
    // Literal text is preserved, quotes included (the index reads include
    // paths from it); the quote characters keep a literal from ever
    // matching an identifier comparison in the rules.
    Emit(kind, std::string(src_.substr(pos_, stop - pos_)));
    pos_ = stop;
  }

  void LexIdent() {
    size_t end = pos_;
    while (end < src_.size() && IsIdentChar(src_[end])) ++end;
    Emit(Token::Kind::kIdent, std::string(src_.substr(pos_, end - pos_)));
    pos_ = end;
  }

  void LexNumber() {
    size_t end = pos_;
    while (end < src_.size()) {
      char c = src_[end];
      if (IsIdentChar(c) || c == '.' || c == '\'') {
        ++end;
        continue;
      }
      // Exponent signs: 1e-5, 0x1p+3.
      if ((c == '+' || c == '-') && end > pos_ &&
          (src_[end - 1] == 'e' || src_[end - 1] == 'E' ||
           src_[end - 1] == 'p' || src_[end - 1] == 'P')) {
        ++end;
        continue;
      }
      break;
    }
    Emit(Token::Kind::kNumber, std::string(src_.substr(pos_, end - pos_)));
    pos_ = end;
  }

  void LexPunct() {
    char c = Cur();
    // Multi-char punctuators the rules care about; everything else single.
    if (c == ':' && Next() == ':') {
      Emit(Token::Kind::kPunct, "::");
      pos_ += 2;
      return;
    }
    if (c == '-' && Next() == '>') {
      Emit(Token::Kind::kPunct, "->");
      pos_ += 2;
      return;
    }
    if (c == '+' && Next() == '=') {
      Emit(Token::Kind::kPunct, "+=");
      pos_ += 2;
      return;
    }
    if (c == '=' && Next() == '=') {
      Emit(Token::Kind::kPunct, "==");
      pos_ += 2;
      return;
    }
    if (c == '!' && Next() == '=') {
      Emit(Token::Kind::kPunct, "!=");
      pos_ += 2;
      return;
    }
    Emit(Token::Kind::kPunct, std::string(1, c));
    ++pos_;
  }

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  bool line_has_code_ = false;
  bool in_preproc_ = false;
  LexedFile out_;
};

}  // namespace

LexedFile Lex(std::string_view source) { return Lexer(source).Run(); }

bool IsAllowedAt(const std::map<int, std::set<std::string>>& allowed, int line,
                 Rule rule) {
  for (int l : {line, line - 1}) {
    auto it = allowed.find(l);
    if (it != allowed.end() &&
        (it->second.count("*") > 0 || it->second.count(RuleName(rule)) > 0)) {
      return true;
    }
  }
  return false;
}

const char* RuleName(Rule rule) {
  switch (rule) {
    case Rule::kD1: return "D1";
    case Rule::kD2: return "D2";
    case Rule::kC1: return "C1";
    case Rule::kL1: return "L1";
    case Rule::kC3: return "C3";
    case Rule::kA1: return "A1";
  }
  return "?";
}

}  // namespace qkbfly::lint
