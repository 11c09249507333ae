// The project's one JSON reader and one JSON string escaper. Every JSON file
// QKBfly reads or writes goes through here: fact-store snapshots, the
// metrics export and BENCH_*.json reports. Schema checks are small functions
// over the parsed Document at each call site.
//
// Contract (DESIGN.md "JSON"):
//   - Strict RFC 8259 grammar: one value, whitespace is space / tab / LF /
//     CR, no comments, no trailing commas, no leading '+' or zeros.
//   - Object members keep their source order; a duplicate key is an error.
//   - Strings are byte strings. Raw bytes >= 0x20 (0x80-0xff included) pass
//     through unvalidated; raw bytes < 0x20 are an error. A `\u` escape of
//     0000-00FF decodes to that one byte; one above 00FF is an error.
//   - A number keeps its source token: GetUint64 reads it as an exact
//     integer, GetDouble through strtod of the same text.
//   - Nesting deeper than kMaxDepth is an error.
//   - The first error is reported with its byte offset.
#ifndef QKBFLY_UTIL_JSON_H_
#define QKBFLY_UTIL_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qkbfly::json {

enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

/// Deepest container nesting Parse accepts.
inline constexpr int kMaxDepth = 256;

/// Appends `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// LF / CR / tab become \n / \r / \t, every other byte below 0x20 becomes
/// \u00xx (lowercase hex), and all other bytes are copied raw.
void AppendJsonString(std::string_view s, std::string* out);

class Document;

/// Read-only handle to one value of a parsed Document, valid until the
/// Document is parsed again or destroyed. A handle that names no value (a
/// missing member, an out-of-range index) is absent: it converts to false,
/// every is_* test and getter on it fails, and size() is 0.
class Value {
 public:
  Value() = default;

  explicit operator bool() const { return doc_ != nullptr; }
  bool is_null() const { return Is(Kind::kNull); }
  bool is_bool() const { return Is(Kind::kBool); }
  bool is_number() const { return Is(Kind::kNumber); }
  bool is_string() const { return Is(Kind::kString); }
  bool is_array() const { return Is(Kind::kArray); }
  bool is_object() const { return Is(Kind::kObject); }

  /// The value of a bool; false for anything else.
  bool boolean() const;

  /// The decoded bytes of a string, or the source token of a number; empty
  /// for anything else.
  std::string_view text() const;

  /// Reads a number whose token is plain digits and fits in uint64_t
  /// exactly. False (and `*out` untouched) for a sign, fraction, exponent,
  /// overflow, or a non-number.
  bool GetUint64(uint64_t* out) const;

  /// Reads a number through strtod of its token. False for a non-number or
  /// a token outside the finite double range.
  bool GetDouble(double* out) const;

  /// Elements of an array or members of an object; 0 for anything else.
  size_t size() const;

  /// Element `i` of an array, or the value of member `i` of an object.
  Value at(size_t i) const;

  /// The key of member `i` of an object; empty for anything else.
  std::string_view key(size_t i) const;

  /// The value of the member named `key` of an object; absent when the
  /// member is missing or this is not an object.
  Value Find(std::string_view key) const;

 private:
  friend class Document;
  Value(const Document* doc, uint32_t node) : doc_(doc), node_(node) {}
  bool Is(Kind kind) const;

  const Document* doc_ = nullptr;
  uint32_t node_ = 0;
};

/// A parsed JSON text stored flat: one node per value, container children
/// in one contiguous index array, decoded strings and number tokens in one
/// byte buffer. Parse reuses the buffers, so re-parsing into the same
/// Document allocates only when an input outgrows the earlier ones.
class Document {
 public:
  /// Parses `text` as exactly one JSON value, replacing any previous
  /// contents. On failure returns false, leaves the Document empty and,
  /// when `error` is non-null, sets it to "<what> at offset <byte>".
  bool Parse(std::string_view text, std::string* error);

  /// The top-level value; absent when the last Parse failed or none ran.
  Value root() const;

 private:
  friend class Value;
  friend class Parser;

  struct Node {
    Kind kind = Kind::kNull;
    bool boolean = false;
    /// String / number: offset into bytes_. Container: offset into
    /// children_, where an object stores (key node, value node) pairs.
    uint32_t begin = 0;
    /// String / number: byte length. Container: element or member count.
    uint32_t size = 0;
  };

  std::vector<Node> nodes_;
  std::vector<uint32_t> children_;
  std::vector<uint32_t> pending_;  ///< Parse scratch: open containers' children.
  std::string bytes_;
};

}  // namespace qkbfly::json

#endif  // QKBFLY_UTIL_JSON_H_
