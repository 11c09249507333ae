#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace qkbfly::json {

namespace {

// The one-letter escapes: the letter after the backslash and its byte.
constexpr std::string_view kEscapeLetters = "\"\\/bfnrt";
constexpr std::string_view kEscapeBytes = "\"\\/\b\f\n\r\t";

}  // namespace

void AppendJsonString(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  // Bytes that need no escape are appended a run at a time.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    unsigned char u = static_cast<unsigned char>(c);
    if (u >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    if (c == '"' || c == '\\' || c == '\n' || c == '\r' || c == '\t') {
      out->push_back('\\');
      out->push_back(kEscapeLetters[kEscapeBytes.find(c)]);
    } else {
      out->append("\\u00");
      out->push_back(kHex[u >> 4]);
      out->push_back(kHex[u & 0xF]);
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

/// Recursive-descent parser writing straight into a Document's flat
/// buffers. Each container reserves its node first, collects its children's
/// node ids on `pending_`, and moves them into `children_` when it closes,
/// so every container's children end up contiguous.
class Parser {
 public:
  Parser(std::string_view text, Document* doc) : text_(text), doc_(*doc) {}

  bool Run(std::string* error) {
    // Node, child and byte offsets are uint32_t; bytes_ holds at most the
    // input plus one NUL per number token.
    bool ok = text_.size() <= std::numeric_limits<uint32_t>::max() / 2
                  ? ParseValue(0)
                  : Fail("input too large");
    if (ok) {
      SkipSpace();
      if (pos_ != text_.size()) ok = Fail("trailing characters");
    }
    if (!ok && error != nullptr) {
      *error = std::string(error_) + " at offset " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  bool Fail(const char* what) {
    error_ = what;
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// The id the next parsed value gets: every value adds its own node
  /// before any of its descendants'.
  uint32_t NextNode() const {
    return static_cast<uint32_t>(doc_.nodes_.size());
  }

  uint32_t AddNode(Kind kind) {
    doc_.nodes_.push_back(Document::Node{kind, false, 0, 0});
    return static_cast<uint32_t>(doc_.nodes_.size() - 1);
  }

  /// Moves the children collected since `mark` into children_.
  void CloseContainer(uint32_t node, size_t mark) {
    Document::Node& n = doc_.nodes_[node];
    n.begin = static_cast<uint32_t>(doc_.children_.size());
    size_t slots = doc_.pending_.size() - mark;
    n.size = static_cast<uint32_t>(n.kind == Kind::kObject ? slots / 2 : slots);
    doc_.children_.insert(doc_.children_.end(), doc_.pending_.begin() + mark,
                          doc_.pending_.end());
    doc_.pending_.resize(mark);
  }

  bool ParseValue(int depth) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("expected a value");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth >= kMaxDepth) return Fail("nesting too deep");
      return c == '{' ? ParseObject(depth + 1) : ParseArray(depth + 1);
    }
    if (c == '"') return ParseString();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    if (Literal("true")) {
      doc_.nodes_[AddNode(Kind::kBool)].boolean = true;
      return true;
    }
    if (Literal("false")) {
      AddNode(Kind::kBool);
      return true;
    }
    if (Literal("null")) {
      AddNode(Kind::kNull);
      return true;
    }
    return Fail("expected a value");
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool ParseObject(int depth) {
    ++pos_;  // '{'
    uint32_t node = AddNode(Kind::kObject);
    size_t mark = doc_.pending_.size();
    if (!Consume('}')) {
      do {
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != '"') {
          return Fail("expected a string key");
        }
        size_t key_pos = pos_;
        uint32_t key = NextNode();
        if (!ParseString()) return false;
        std::string_view name = Text(key);
        for (size_t i = mark; i < doc_.pending_.size(); i += 2) {
          if (Text(doc_.pending_[i]) == name) {
            pos_ = key_pos;
            return Fail("duplicate key");
          }
        }
        doc_.pending_.push_back(key);
        if (!Consume(':')) return Fail("expected ':'");
        doc_.pending_.push_back(NextNode());
        if (!ParseValue(depth)) return false;
      } while (Consume(','));
      if (!Consume('}')) return Fail("expected ',' or '}'");
    }
    CloseContainer(node, mark);
    return true;
  }

  bool ParseArray(int depth) {
    ++pos_;  // '['
    uint32_t node = AddNode(Kind::kArray);
    size_t mark = doc_.pending_.size();
    if (!Consume(']')) {
      do {
        doc_.pending_.push_back(NextNode());
        if (!ParseValue(depth)) return false;
      } while (Consume(','));
      if (!Consume(']')) return Fail("expected ',' or ']'");
    }
    CloseContainer(node, mark);
    return true;
  }

  std::string_view Text(uint32_t node) const {
    const Document::Node& n = doc_.nodes_[node];
    return std::string_view(doc_.bytes_).substr(n.begin, n.size);
  }

  /// Adds a string node; pos_ is at the opening quote.
  bool ParseString() {
    ++pos_;
    uint32_t node = AddNode(Kind::kString);
    size_t begin = doc_.bytes_.size();
    std::string& out = doc_.bytes_;
    for (;;) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      char c = text_[pos_];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control byte in string");
      }
      ++pos_;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated string");
      char esc = text_[pos_++];
      if (size_t e = kEscapeLetters.find(esc); e != std::string_view::npos) {
        out.push_back(kEscapeBytes[e]);
        continue;
      }
      if (esc != 'u') {
        --pos_;
        return Fail("bad escape");
      }
      unsigned value = 0;
      const char* hex = text_.data() + pos_;
      if (text_.size() - pos_ < 4 ||
          std::from_chars(hex, hex + 4, value, 16).ptr != hex + 4) {
        return Fail("bad \\u escape");
      }
      pos_ += 4;
      // Strings are byte strings: only the one-byte range decodes.
      if (value > 0xFF) return Fail("\\u escape above 00FF");
      out.push_back(static_cast<char>(value));
    }
    ++pos_;  // closing quote
    Document::Node& n = doc_.nodes_[node];
    n.begin = static_cast<uint32_t>(begin);
    n.size = static_cast<uint32_t>(out.size() - begin);
    return true;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool ParseNumber() {
    size_t start = pos_;
    auto digit = [&] {
      return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
    };
    auto digits = [&] {
      if (!digit()) return false;
      while (digit()) ++pos_;
      return true;
    };
    if (text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      return Fail("bad number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return Fail("bad number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) return Fail("bad number");
    }
    Document::Node& n = doc_.nodes_[AddNode(Kind::kNumber)];
    n.begin = static_cast<uint32_t>(doc_.bytes_.size());
    n.size = static_cast<uint32_t>(pos_ - start);
    doc_.bytes_.append(text_.substr(start, pos_ - start));
    doc_.bytes_.push_back('\0');  // lets GetDouble strtod the token in place
    return true;
  }

  std::string_view text_;
  Document& doc_;
  size_t pos_ = 0;
  const char* error_ = "";
};

bool Document::Parse(std::string_view text, std::string* error) {
  nodes_.clear();
  children_.clear();
  pending_.clear();
  bytes_.clear();
  if (Parser(text, this).Run(error)) return true;
  nodes_.clear();
  return false;
}

Value Document::root() const {
  return nodes_.empty() ? Value() : Value(this, 0);
}

bool Value::Is(Kind kind) const {
  return doc_ != nullptr && doc_->nodes_[node_].kind == kind;
}

bool Value::boolean() const {
  return is_bool() && doc_->nodes_[node_].boolean;
}

std::string_view Value::text() const {
  if (!is_string() && !is_number()) return {};
  const Document::Node& n = doc_->nodes_[node_];
  return std::string_view(doc_->bytes_).substr(n.begin, n.size);
}

bool Value::GetUint64(uint64_t* out) const {
  if (!is_number()) return false;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t value = 0;
  for (char c : text()) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool Value::GetDouble(double* out) const {
  if (!is_number()) return false;
  // Number tokens are stored NUL-terminated, and strtod reads every token
  // the grammar accepts in full.
  double value = std::strtod(text().data(), nullptr);
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

size_t Value::size() const {
  return is_array() || is_object() ? doc_->nodes_[node_].size : 0;
}

Value Value::at(size_t i) const {
  if (i >= size()) return Value();
  const Document::Node& n = doc_->nodes_[node_];
  size_t slot = n.kind == Kind::kObject ? n.begin + 2 * i + 1 : n.begin + i;
  return Value(doc_, doc_->children_[slot]);
}

std::string_view Value::key(size_t i) const {
  if (!is_object() || i >= size()) return {};
  const Document::Node& n = doc_->nodes_[node_];
  return Value(doc_, doc_->children_[n.begin + 2 * i]).text();
}

Value Value::Find(std::string_view name) const {
  for (size_t i = 0; is_object() && i < size(); ++i) {
    if (key(i) == name) return at(i);
  }
  return Value();
}

}  // namespace qkbfly::json
