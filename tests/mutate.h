// Seeded byte mutator shared by the mutation tests of readers of outside
// bytes (json_test: util/json, FactStore::Load, the metrics validator;
// store_test: OnTheFlyKb::Deserialize; text_mutation_test and
// graph_test: raw document text).
#ifndef QKBFLY_TESTS_MUTATE_H_
#define QKBFLY_TESTS_MUTATE_H_

#include <string>
#include <string_view>

#include "util/rng.h"

namespace qkbfly {

/// The bytes the text readers treat specially, for Mutate: sentence
/// boundaries, clitics, quotes, currency, hyphens, digits, whitespace,
/// capitals and UTF-8 lead/continuation bytes.
inline constexpr std::string_view kTextSignificant =
    ".!?'\"$,-()0123456789 \t\nAJMSZ\xc3\xa9\xe2\x80\x99";

/// One to three random edits: truncate, overwrite a byte, insert a byte, or
/// delete a byte. Half of the overwrites and insertions draw from
/// `significant`, the bytes the reader under test treats specially.
inline std::string Mutate(const std::string& seed, std::string_view significant,
                          Rng& rng) {
  std::string s = seed;
  int edits = rng.NextInt(1, 3);
  for (int e = 0; e < edits && !s.empty(); ++e) {
    size_t at = rng.NextUint64(s.size());
    char byte = rng.NextBool(0.5)
                    ? significant[rng.NextUint64(significant.size())]
                    : static_cast<char>(rng.NextUint64(256));
    int kind = rng.NextInt(0, 3);
    if (kind == 0) {
      s.resize(at);
    } else if (kind == 1) {
      s[at] = byte;
    } else if (kind == 2) {
      s.insert(at, 1, byte);
    } else {
      s.erase(at, 1);
    }
  }
  return s;
}

}  // namespace qkbfly

#endif  // QKBFLY_TESTS_MUTATE_H_
