// Brace/scope structure of a lexed translation unit and the token helpers
// over it, shared by the per-file rule passes (lint/rules.cc) and the
// whole-program indexer (lint/index.cc).
// Scope classification is a token-level heuristic: a '{' is a function body
// when the preceding head ends in ')' (plus trailing qualifiers), a class or
// namespace when the head names one, and a plain block otherwise.
#ifndef QKBFLY_TOOLS_LINT_STRUCTURE_H_
#define QKBFLY_TOOLS_LINT_STRUCTURE_H_

#include <string>
#include <string_view>
#include <vector>

#include "lint/lint.h"

namespace qkbfly::lint {

enum class ScopeKind { kNamespace, kClass, kFunction, kBlock };

struct Scope {
  ScopeKind kind = ScopeKind::kBlock;
  size_t open = 0;   ///< Index of the '{' (filtered position).
  size_t close = 0;  ///< Index of the matching '}'.
  std::string name;  ///< Function/class/namespace name when detectable.
};

struct FunctionRegion {
  std::string name;       ///< Unqualified name ("Densify", "~ThreadPool").
  std::string qualified;  ///< "Class::Name" when the class is detectable —
                          ///< from an out-of-line `Class::Name(...)` head or
                          ///< the enclosing class scope — else == name.
  size_t params = 0;  ///< The parameter list's '('.
  size_t open = 0;
  size_t close = 0;
};

/// Token indices of non-preprocessor tokens, with scope classification for
/// every brace pair and the list of outermost function bodies.
struct Structure {
  std::vector<size_t> idx;  ///< Positions of non-preproc tokens.
  std::vector<Scope> scopes;
  std::vector<FunctionRegion> functions;
  /// For each position in `idx`: index of the enclosing function in
  /// `functions`, or kNoFunction at namespace/class scope.
  std::vector<size_t> enclosing_function;
};

inline constexpr size_t kNoFunction = static_cast<size_t>(-1);

inline bool Is(const Token& t, std::string_view text) { return t.text == text; }
inline bool IsIdent(const Token& t) { return t.kind == Token::Kind::kIdent; }

Structure BuildStructure(const std::vector<Token>& toks);

/// True when every scope enclosing filtered position `f` is a namespace.
bool AtNamespaceScope(const Structure& s, size_t f);

/// Skips a balanced `<...>` starting at filtered position `f` (which must be
/// '<'); returns the position just past the matching '>'. A ';' inside means
/// a comparison was mistaken for template arguments: returns its position.
size_t SkipAngles(const std::vector<Token>& toks, const Structure& s,
                  size_t f);

/// Filtered position of the ')' or '}' matching the '(' or '{' at `open`,
/// or the token count when it is unbalanced.
size_t MatchClose(const std::vector<Token>& toks, const Structure& s,
                  size_t open);

}  // namespace qkbfly::lint

#endif  // QKBFLY_TOOLS_LINT_STRUCTURE_H_
