// String helpers shared across the NLP and KB layers. All functions are
// ASCII-oriented: the synthetic corpora this reproduction generates are ASCII,
// which keeps tokenization and case folding simple and fast.
#ifndef QKBFLY_UTIL_STRING_UTIL_H_
#define QKBFLY_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace qkbfly {

/// Returns a lowercased copy (ASCII case folding).
std::string Lowercase(std::string_view s);

/// Lowercases into a caller-owned buffer, reusing its capacity: the
/// allocation-free variant for per-document hot paths.
void LowercaseInto(std::string_view s, std::string* out);

/// Heterogeneous string hash for unordered containers keyed by std::string:
/// with std::equal_to<> as the key-equal, find(string_view) probes without
/// materializing a temporary std::string.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const std::string& s) const {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const char* s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Returns an uppercased copy (ASCII case folding).
std::string Uppercase(std::string_view s);

/// True if `s` begins with an ASCII uppercase letter.
bool IsCapitalized(std::string_view s);

/// True if every character is an ASCII digit (and the string is non-empty).
bool IsAllDigits(std::string_view s);

/// True if the string parses as a number, optionally signed / decimal /
/// comma-grouped (e.g. "100,000", "-3.5", "$100,000" is *not* numeric).
bool IsNumeric(std::string_view s);

/// Splits on a single character; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins the pieces with `sep` between them.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from, std::string_view to);

/// Levenshtein edit distance; used for fuzzy alias matching diagnostics.
int EditDistance(std::string_view a, std::string_view b);

/// True if `a` and `b` are equal after ASCII case folding.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Number appenders for the KB text and fact-store writers. They format with
// std::to_chars, so the bytes are printf's ("%u" / "%llu", "%d" / "%lld",
// "%.17g") without its per-call parsing and independent of the C library's
// LC_NUMERIC locale.

/// Appends `v` in decimal.
void AppendUint(uint64_t v, std::string* out);

/// Appends `v` in decimal, with a '-' when negative.
void AppendInt(int64_t v, std::string* out);

/// Appends `v` with 17 significant digits, spelled exactly as "%.17g" does:
/// enough digits that parsing the text recovers the same double.
void AppendExactDouble(double v, std::string* out);

/// Bytes AppendExactDouble appends for `v`.
size_t ExactDoubleSize(double v);

}  // namespace qkbfly

#endif  // QKBFLY_UTIL_STRING_UTIL_H_
