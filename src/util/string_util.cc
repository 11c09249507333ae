#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace qkbfly {

std::string Lowercase(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

void LowercaseInto(std::string_view s, std::string* out) {
  out->assign(s);
  std::transform(out->begin(), out->end(), out->begin(),
                 [](unsigned char c) { return std::tolower(c); });
}

std::string Uppercase(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

bool IsCapitalized(std::string_view s) {
  return !s.empty() && std::isupper(static_cast<unsigned char>(s[0]));
}

bool IsAllDigits(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isdigit(c); });
}

bool IsNumeric(std::string_view s) {
  if (s.empty()) return false;
  size_t i = 0;
  if (s[0] == '+' || s[0] == '-') i = 1;
  if (i >= s.size()) return false;
  bool saw_digit = false;
  bool saw_dot = false;
  for (; i < s.size(); ++i) {
    unsigned char c = s[i];
    if (std::isdigit(c)) {
      saw_digit = true;
    } else if (c == '.' && !saw_dot) {
      saw_dot = true;
    } else if (c == ',') {
      // Grouping separator; require a digit before it.
      if (!saw_digit) return false;
    } else {
      return false;
    }
  }
  return saw_digit;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return std::string(s.substr(begin, end - begin));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string ReplaceAll(std::string_view s, std::string_view from, std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      break;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

int EditDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<int> prev(m + 1);
  std::vector<int> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

void AppendUint(uint64_t v, std::string* out) {
  char buf[20];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendInt(int64_t v, std::string* out) {
  char buf[20];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

namespace {

// The longest "%.17g" spelling is "-1.7976931348623157e+308" (24 bytes).
constexpr size_t kExactDoubleBytes = 24;

char* FormatExactDouble(double v, char* buf) {
  return std::to_chars(buf, buf + kExactDoubleBytes, v,
                       std::chars_format::general, 17)
      .ptr;
}

}  // namespace

void AppendExactDouble(double v, std::string* out) {
  char buf[kExactDoubleBytes];
  out->append(buf, FormatExactDouble(v, buf));
}

size_t ExactDoubleSize(double v) {
  char buf[kExactDoubleBytes];
  return static_cast<size_t>(FormatExactDouble(v, buf) - buf);
}

}  // namespace qkbfly
