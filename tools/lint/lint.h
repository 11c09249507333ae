// qkbfly-lint: a project-specific token-level static analyzer enforcing the
// determinism and concurrency contracts of the QKBfly serving pipeline (warm,
// cold, serial and N-thread builds must produce byte-identical KBs).
//
// No libclang: a small lexer strips comments/strings/raw strings, tracks
// identifiers and brace/paren nesting, and three per-file rule passes run
// over the token stream. Imprecision is by design — a finding is silenced
// only at the site, with a justified `// qkbfly-lint: allow(<rule>)`
// comment; any other finding fails the run.
//
// Per-file rules (phase 1):
//   D1  unordered_{map,set} iteration feeding output order (KB facts, bench
//       rows, returned result vectors) without a downstream sort.
//   D2  nondeterminism sources on deterministic paths (src/ minus bench):
//       rand/random_device, wall-clock now, address-as-hash.
//   C1  mutable namespace-scope or static-local state without a mutex,
//       atomic, or the leaky-singleton interner shape.
//
// Whole-program rules (phase 2, over a ProjectIndex — see lint/index.h and
// lint/wholeprogram.h):
//   L1  include-graph layering: module back-edges against the DAG in
//       ProjectLayers() (lint/wholeprogram.cc), and include cycles.
//   C3  lock order: the acquired-while-held graph built from actual lock
//       sites must be acyclic and consistent with the documented ThreadPool
//       -> query-level -> memo shard -> store shard -> metrics ranks.
//   A1  hot-path allocation: functions reachable from the densify hot path
//       must not allocate or grow non-workspace containers.
#ifndef QKBFLY_TOOLS_LINT_LINT_H_
#define QKBFLY_TOOLS_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace qkbfly::lint {

enum class Rule { kD1, kD2, kC1, kL1, kC3, kA1 };

const char* RuleName(Rule rule);

/// One finding. `key` is a line-number-free, rule-specific fingerprint (the
/// iterated container name, the cycle, the lock edge) that tests match on
/// and that orders findings sharing a line.
struct Diagnostic {
  Rule rule = Rule::kD1;
  std::string file;
  int line = 0;
  std::string key;
  std::string message;  ///< Includes a fix-it hint.
};

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kString, kChar };
  Kind kind = Kind::kPunct;
  std::string text;  ///< Punctuators are 1 char except "::" "->" "." chains.
  int line = 0;
  bool preproc = false;  ///< Token belongs to a preprocessor directive.
};

struct Comment {
  int line = 0;
  bool own_line = false;  ///< No code tokens precede the comment on its line.
  std::string text;
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  /// line -> rules allowed by a `qkbfly-lint: allow(...)` comment. A
  /// full-line comment also covers the next line; "*" allows every rule.
  std::map<int, std::set<std::string>> allowed;
};

/// Lexes C++ source: comments are stripped from the token stream; string and
/// char literals become kString/kChar tokens carrying the literal text with
/// its quotes (raw strings collapse to an empty placeholder). Line
/// continuations are handled, line numbers are 1-based.
LexedFile Lex(std::string_view source);

/// True when `allowed` (LexedFile::allowed) covers `rule` on `line` or the
/// line above it.
bool IsAllowedAt(const std::map<int, std::set<std::string>>& allowed, int line,
                 Rule rule);

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Names of variables/members/parameters declared in `file` with an
/// unordered_{map,set} type (including local `using` aliases of them).
/// Exposed so a .cc can inherit the declarations of its paired header.
std::vector<std::string> UnorderedDeclNames(const LexedFile& file);

/// Lints one translation unit. `path` should be repo-relative; it selects
/// where D2 applies and is echoed in diagnostics.
/// `extra_unordered` seeds D1 with container names declared elsewhere
/// (typically the paired header).
std::vector<Diagnostic> LintSource(
    std::string_view path, std::string_view source,
    const std::vector<std::string>& extra_unordered = {});

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// One enumerated source file: `path` opens on disk, `display` is the
/// repo-relative name used in diagnostics and the project index.
struct SourceFile {
  std::string path;
  std::string display;
};

/// Every *.h/*.cc/*.cpp under `roots`, sorted and de-duplicated; `display`
/// strips `root_prefix` when the file lives beneath it.
std::vector<SourceFile> ListSourceFiles(const std::vector<std::string>& roots,
                                        const std::string& root_prefix);

/// Whole-file read ("" for unreadable paths — the driver treats an empty
/// file as having nothing to lint).
std::string ReadFileToString(const std::string& path);

/// Renders "file:line: rule: message" for terminals and CI logs.
std::string Render(const Diagnostic& diag);

}  // namespace qkbfly::lint

#endif  // QKBFLY_TOOLS_LINT_LINT_H_
