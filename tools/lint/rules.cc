// Rule passes of qkbfly-lint. Everything here is a token-level heuristic:
// scope structure comes from brace classification, types from declaration
// shapes, data flow from "mutated in the loop, returned from the function".
// False positives are expected and handled by allow() markers; the rules err
// toward catching the determinism hazards that the byte-identical-KB tests
// can only detect after the fact.
#include <algorithm>
#include <cstddef>

#include "lint/lint.h"
#include "lint/structure.h"

namespace qkbfly::lint {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

// ---------------------------------------------------------------------------
// Shared helpers (scope structure and the token helpers live in
// lint/structure.h, shared with the whole-program indexer)
// ---------------------------------------------------------------------------

struct Context {
  const std::vector<Token>* toks = nullptr;
  const Structure* structure = nullptr;
  const LexedFile* lexed = nullptr;
  std::string path;
  std::vector<Diagnostic>* out = nullptr;
};

/// True for src/** except src/synth (seeded-random data generation);
/// bench/, examples/ and tests/ are never deterministic-path.
bool IsDeterministicPath(std::string_view path) {
  auto contains = [&](std::string_view part) {
    return path.find(part) != std::string_view::npos;
  };
  bool in_src = path.rfind("src/", 0) == 0 || contains("/src/");
  return in_src && !contains("bench/") && !contains("examples/") &&
         !contains("tests/") && !contains("synth/");
}

const Token& Tok(const Context& ctx, size_t f) {
  return (*ctx.toks)[ctx.structure->idx[f]];
}
size_t Count(const Context& ctx) { return ctx.structure->idx.size(); }

void Report(const Context& ctx, Rule rule, int line, std::string key,
            std::string message) {
  if (IsAllowedAt(ctx.lexed->allowed, line, rule)) return;
  ctx.out->push_back(
      {rule, ctx.path, line, std::move(key), std::move(message)});
}

// ---------------------------------------------------------------------------
// D1 — unordered iteration feeding output order
// ---------------------------------------------------------------------------

/// Identifiers the project considers order-sensitive sinks: calls that append
/// to the shared KB, emit bench/report rows, or print user-visible output.
bool IsSinkIdent(const Token& t) {
  static const char* kSinks[] = {
      "AddFact", "AddEmergingEntity", "RelationFor", "FactToString",
      "Merge", "PopulateKb", "OnTheFlyKb", "Canonicalizer",
      "WriteBenchJson", "AppendBenchRow", "printf", "fprintf", "cout",
      "cerr",
  };
  for (const char* s : kSinks) {
    if (t.text == s) return true;
  }
  return false;
}

std::vector<std::string> CollectUnorderedNames(const Context& ctx) {
  std::vector<std::string> names;
  std::set<std::string> unordered_types = {"unordered_map", "unordered_set",
                                           "unordered_multimap",
                                           "unordered_multiset"};
  size_t n = Count(ctx);
  // `using Alias = ... unordered_map ...;` makes Alias an unordered type.
  for (size_t f = 0; f + 2 < n; ++f) {
    if (!Is(Tok(ctx, f), "using") || !IsIdent(Tok(ctx, f + 1)) ||
        !Is(Tok(ctx, f + 2), "=")) {
      continue;
    }
    for (size_t j = f + 3; j < n && !Is(Tok(ctx, j), ";"); ++j) {
      if (unordered_types.count(Tok(ctx, j).text) > 0) {
        unordered_types.insert(Tok(ctx, f + 1).text);
        break;
      }
    }
  }
  // TYPE<...> [*&]* NAME  — variables, members, and parameters alike.
  for (size_t f = 0; f < n; ++f) {
    if (unordered_types.count(Tok(ctx, f).text) == 0) continue;
    if (f + 1 >= n || !Is(Tok(ctx, f + 1), "<")) {
      // Alias form: `Alias name`.
      if (f + 1 < n && IsIdent(Tok(ctx, f + 1))) {
        names.push_back(Tok(ctx, f + 1).text);
      }
      continue;
    }
    size_t after = SkipAngles(*ctx.toks, *ctx.structure, f + 1);
    while (after < n && (Is(Tok(ctx, after), "&") || Is(Tok(ctx, after), "*") ||
                         Is(Tok(ctx, after), "&&") ||
                         Is(Tok(ctx, after), "const"))) {
      ++after;
    }
    if (after < n && IsIdent(Tok(ctx, after))) {
      names.push_back(Tok(ctx, after).text);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

/// A range-for over an unordered container inside `fn`.
struct UnorderedLoop {
  std::string container;
  int line = 0;
  size_t body_open = 0;   ///< '{' of the loop body (or statement start).
  size_t body_close = 0;  ///< Matching '}' (or statement end).
};

void CheckD1(const Context& ctx, const std::vector<std::string>& extra) {
  std::set<std::string> unordered(extra.begin(), extra.end());
  for (const std::string& name : CollectUnorderedNames(ctx)) {
    unordered.insert(name);
  }
  if (unordered.empty()) return;

  const auto& functions = ctx.structure->functions;
  for (const FunctionRegion& fn : functions) {
    // Returned identifiers: `return X ;`
    std::set<std::string> returned;
    for (size_t f = fn.open; f < fn.close && f + 2 < Count(ctx); ++f) {
      if (Is(Tok(ctx, f), "return") && IsIdent(Tok(ctx, f + 1)) &&
          Is(Tok(ctx, f + 2), ";")) {
        returned.insert(Tok(ctx, f + 1).text);
      }
    }

    // Find range-fors over unordered containers.
    std::vector<UnorderedLoop> loops;
    for (size_t f = fn.open; f < fn.close; ++f) {
      if (!Is(Tok(ctx, f), "for") || f + 1 >= Count(ctx) ||
          !Is(Tok(ctx, f + 1), "(")) {
        continue;
      }
      size_t close = MatchClose(*ctx.toks, *ctx.structure, f + 1);
      // Top-level ':' separates declaration from range expression.
      size_t colon = kNone;
      int pdepth = 0;
      for (size_t i = f + 1; i < close; ++i) {
        if (Is(Tok(ctx, i), "(") || Is(Tok(ctx, i), "[")) ++pdepth;
        if (Is(Tok(ctx, i), ")") || Is(Tok(ctx, i), "]")) --pdepth;
        if (pdepth == 1 && Is(Tok(ctx, i), ":")) {
          colon = i;
          break;
        }
      }
      std::string container;
      if (colon != kNone) {
        // First identifier of the range expression; skip subscripted and
        // member-of-iterator expressions (they iterate a mapped value).
        bool subscripted = false;
        for (size_t i = colon + 1; i < close; ++i) {
          if (Is(Tok(ctx, i), "[")) subscripted = true;
          if (container.empty() && IsIdent(Tok(ctx, i)) &&
              unordered.count(Tok(ctx, i).text) > 0) {
            container = Tok(ctx, i).text;
          }
        }
        if (subscripted) container.clear();
      } else {
        // Iterator form: `for (auto it = X.begin(); ...)`.
        for (size_t i = f + 2; i + 2 < close; ++i) {
          if (IsIdent(Tok(ctx, i)) && unordered.count(Tok(ctx, i).text) > 0 &&
              (Is(Tok(ctx, i + 1), ".") || Is(Tok(ctx, i + 1), "->")) &&
              Is(Tok(ctx, i + 2), "begin")) {
            container = Tok(ctx, i).text;
            break;
          }
        }
      }
      if (container.empty()) continue;
      UnorderedLoop loop;
      loop.container = container;
      loop.line = Tok(ctx, f).line;
      if (close + 1 < Count(ctx) && Is(Tok(ctx, close + 1), "{")) {
        loop.body_open = close + 1;
        loop.body_close = MatchClose(*ctx.toks, *ctx.structure, close + 1);
      } else {
        loop.body_open = close + 1;
        loop.body_close = std::min(close + 40, Count(ctx));  // single stmt
      }
      loops.push_back(std::move(loop));
    }

    for (const UnorderedLoop& loop : loops) {
      // Identifiers mutated inside the loop body via an appending call.
      std::set<std::string> mutated;
      bool sink_in_loop = false;
      for (size_t f = loop.body_open; f < loop.body_close; ++f) {
        const Token& t = Tok(ctx, f);
        if (IsSinkIdent(t)) sink_in_loop = true;
        if (!IsIdent(t) || f + 2 >= Count(ctx)) continue;
        if ((Is(Tok(ctx, f + 1), ".") || Is(Tok(ctx, f + 1), "->")) &&
            (Is(Tok(ctx, f + 2), "push_back") ||
             Is(Tok(ctx, f + 2), "emplace_back") ||
             Is(Tok(ctx, f + 2), "emplace") || Is(Tok(ctx, f + 2), "insert") ||
             Is(Tok(ctx, f + 2), "append") || Is(Tok(ctx, f + 2), "Add"))) {
          mutated.insert(t.text);
        }
      }
      if (!sink_in_loop && mutated.empty()) continue;

      // The loop is output-facing when it calls a sink directly or fills a
      // container the function returns.
      std::string hot;
      for (const std::string& m : mutated) {
        if (returned.count(m) > 0) hot = m;
      }
      if (!sink_in_loop && hot.empty()) continue;

      // Mitigation: the accumulated result is canonicalized after the fact —
      // a sort()/stable_sort() call naming the accumulator, or a Finalize()
      // on it (SparseVector::Finalize sorts by index).
      if (!hot.empty()) {
        bool mitigated = false;
        for (size_t f = fn.open; f < fn.close && !mitigated; ++f) {
          if ((Is(Tok(ctx, f), "sort") || Is(Tok(ctx, f), "stable_sort")) &&
              f + 1 < Count(ctx) && Is(Tok(ctx, f + 1), "(")) {
            size_t close = MatchClose(*ctx.toks, *ctx.structure, f + 1);
            for (size_t i = f + 2; i < close; ++i) {
              if (Is(Tok(ctx, i), hot)) mitigated = true;
            }
          }
          if (Is(Tok(ctx, f), hot) && f + 2 < Count(ctx) &&
              (Is(Tok(ctx, f + 1), ".") || Is(Tok(ctx, f + 1), "->")) &&
              Is(Tok(ctx, f + 2), "Finalize")) {
            mitigated = true;
          }
        }
        if (mitigated) continue;
      }

      std::string what = sink_in_loop
                             ? "calls an output sink"
                             : "fills returned container '" + hot + "'";
      Report(ctx, Rule::kD1, loop.line, loop.container,
             "iteration over unordered container '" + loop.container +
                 "' " + what + " in hash order" +
                 (ctx.structure->functions.empty()
                      ? ""
                      : " (function '" + fn.name + "')") +
                 "; fix-it: sort the accumulated results (or copy into a "
                 "std::map / sorted vector) before they become output, or "
                 "justify with // qkbfly-lint: allow(D1)");
    }
  }
}

// ---------------------------------------------------------------------------
// D2 — nondeterminism sources on deterministic paths
// ---------------------------------------------------------------------------

void CheckD2(const Context& ctx) {
  if (!IsDeterministicPath(ctx.path)) return;
  size_t n = Count(ctx);
  auto report = [&](size_t f, const std::string& what) {
    Report(ctx, Rule::kD2, Tok(ctx, f).line, what,
           "'" + what + "' on a deterministic path; fix-it: route randomness "
           "through util/rng (seeded) and timestamps through caller-supplied "
           "values, or justify with // qkbfly-lint: allow(D2)");
  };
  for (size_t f = 0; f < n; ++f) {
    const Token& t = Tok(ctx, f);
    if (!IsIdent(t)) continue;
    const std::string& s = t.text;
    if (s == "random_device" || s == "srand" || s == "drand48" ||
        s == "gettimeofday" || s == "localtime" || s == "gmtime" ||
        s == "system_clock" || s == "steady_clock" ||
        s == "high_resolution_clock") {
      report(f, s);
      continue;
    }
    if (s == "rand" && f + 1 < n && Is(Tok(ctx, f + 1), "(")) {
      report(f, s);
      continue;
    }
    if (s == "time" && f + 2 < n && Is(Tok(ctx, f + 1), "(") &&
        (Is(Tok(ctx, f + 2), "nullptr") || Is(Tok(ctx, f + 2), "NULL") ||
         Is(Tok(ctx, f + 2), "0"))) {
      report(f, "time");
      continue;
    }
    // Address-as-hash / pointer-as-integer: reinterpret_cast<uintptr_t>(...)
    // and std::hash over a pointer type.
    if (s == "reinterpret_cast" && f + 2 < n && Is(Tok(ctx, f + 1), "<") &&
        (Is(Tok(ctx, f + 2), "uintptr_t") || Is(Tok(ctx, f + 2), "intptr_t") ||
         Is(Tok(ctx, f + 2), "size_t"))) {
      report(f, "reinterpret_cast<" + Tok(ctx, f + 2).text + ">");
      continue;
    }
    if (s == "hash" && f + 1 < n && Is(Tok(ctx, f + 1), "<")) {
      size_t end = SkipAngles(*ctx.toks, *ctx.structure, f + 1);
      for (size_t i = f + 2; i + 1 < end; ++i) {
        if (Is(Tok(ctx, i), "*")) {
          report(f, "hash<T*>");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// C1 — unguarded mutable static state
// ---------------------------------------------------------------------------

bool DeclTokensContain(const Context& ctx, size_t from, size_t to,
                       std::initializer_list<const char*> words) {
  for (size_t f = from; f < to; ++f) {
    for (const char* w : words) {
      if (Is(Tok(ctx, f), w)) return true;
    }
  }
  return false;
}

void CheckC1(const Context& ctx) {
  size_t n = Count(ctx);
  // Pass 1: `static` declarations everywhere (namespace, class, function).
  for (size_t f = 0; f < n; ++f) {
    if (!Is(Tok(ctx, f), "static")) continue;
    // Find the end of the declaration head: '=' , '{' initializer, or ';'.
    size_t end = f + 1;
    size_t init = kNone;
    int angle = 0;
    while (end < n) {
      const Token& t = Tok(ctx, end);
      if (Is(t, "<")) ++angle;
      if (Is(t, ">")) --angle;
      if (angle == 0 && (Is(t, ";") || Is(t, "=") || Is(t, "{"))) {
        if (!Is(t, ";")) init = end;
        break;
      }
      if (angle == 0 && Is(t, "(")) {
        // Function declaration/definition (or constructor call initializer
        // `static Foo f(args);` — treat the parenthesized form as an
        // initializer only when the previous token is an identifier that is
        // itself preceded by a type-ish token; too ambiguous, so treat
        // `static T name(...)` conservatively as a function and skip).
        end = kNone;
        break;
      }
      ++end;
    }
    if (end == kNone || end >= n) continue;
    // Allowed shapes.
    if (DeclTokensContain(ctx, f, end,
                          {"const", "constexpr", "constinit", "thread_local",
                           "mutex", "shared_mutex", "recursive_mutex",
                           "atomic", "atomic_int", "atomic_bool",
                           "atomic_uint64_t", "once_flag",
                           "condition_variable", "assert"})) {
      continue;
    }
    // The interner/singleton pattern: `static T* name = new T...` — the
    // pointer is written exactly once under magic-static init.
    if (init != kNone && Is(Tok(ctx, init), "=") &&
        DeclTokensContain(ctx, f, init, {"*"}) && init + 1 < n &&
        Is(Tok(ctx, init + 1), "new")) {
      continue;
    }
    // `static T& name = ...` aliases another (checked) object.
    if (DeclTokensContain(ctx, f, end, {"&"})) continue;
    // Declared name: last identifier of the head.
    std::string name;
    for (size_t i = f + 1; i < end; ++i) {
      if (IsIdent(Tok(ctx, i))) name = Tok(ctx, i).text;
    }
    if (name.empty()) continue;
    Report(ctx, Rule::kC1, Tok(ctx, f).line, name,
           "mutable static '" + name + "' is shared across threads without a "
           "mutex/atomic/call_once guard; fix-it: make it const, guard it, "
           "use the leaky-singleton pattern (static T* x = new T), or "
           "justify with // qkbfly-lint: allow(C1)");
  }

  // Pass 2: namespace-scope variable definitions without `static`.
  // Statement = tokens at namespace scope between ';'/'}' boundaries.
  size_t stmt_start = 0;
  for (size_t f = 0; f < n; ++f) {
    const Token& t = Tok(ctx, f);
    bool boundary = Is(t, ";") || Is(t, "}") || Is(t, "{");
    if (!boundary) continue;
    size_t start = stmt_start;
    stmt_start = f + 1;
    if (!Is(t, ";")) continue;                 // only ';'-terminated stmts
    if (start >= f) continue;
    if (!AtNamespaceScope(*ctx.structure, start)) continue;
    // Skip non-variable statements.
    const Token& first = Tok(ctx, start);
    if (Is(first, "using") || Is(first, "typedef") || Is(first, "namespace") ||
        Is(first, "class") || Is(first, "struct") || Is(first, "enum") ||
        Is(first, "union") || Is(first, "template") || Is(first, "extern") ||
        Is(first, "friend") || Is(first, "static") ||
        Is(first, "static_assert") || Is(first, "return") || Is(first, "#")) {
      continue;
    }
    // `(` before any `=` means function declaration.
    size_t eq = kNone;
    int angle = 0;
    bool is_function = false;
    for (size_t i = start; i < f; ++i) {
      if (Is(Tok(ctx, i), "<")) ++angle;
      if (Is(Tok(ctx, i), ">")) --angle;
      if (angle == 0 && Is(Tok(ctx, i), "=")) {
        eq = i;
        break;
      }
      if (angle == 0 && Is(Tok(ctx, i), "(")) {
        is_function = true;
        break;
      }
    }
    if (is_function || eq == kNone) continue;  // declarations need an init
    if (DeclTokensContain(ctx, start, eq,
                          {"const", "constexpr", "constinit", "mutex",
                           "shared_mutex", "atomic", "once_flag",
                           "condition_variable", "thread_local", "inline"})) {
      continue;
    }
    std::string name;
    for (size_t i = start; i < eq; ++i) {
      if (IsIdent(Tok(ctx, i))) name = Tok(ctx, i).text;
    }
    if (name.empty()) continue;
    Report(ctx, Rule::kC1, first.line, name,
           "mutable namespace-scope variable '" + name + "' is unguarded "
           "shared state; fix-it: make it const/constexpr, wrap it in an "
           "atomic or mutex-guarded accessor, or justify with "
           "// qkbfly-lint: allow(C1)");
  }
}

}  // namespace

std::vector<std::string> UnorderedDeclNames(const LexedFile& file) {
  Structure structure = BuildStructure(file.tokens);
  Context ctx;
  ctx.toks = &file.tokens;
  ctx.structure = &structure;
  ctx.lexed = &file;
  return CollectUnorderedNames(ctx);
}

std::vector<Diagnostic> LintSource(std::string_view path,
                                   std::string_view source,
                                   const std::vector<std::string>& extra) {
  LexedFile lexed = Lex(source);
  Structure structure = BuildStructure(lexed.tokens);
  std::vector<Diagnostic> out;
  Context ctx;
  ctx.toks = &lexed.tokens;
  ctx.structure = &structure;
  ctx.lexed = &lexed;
  ctx.path = std::string(path);
  ctx.out = &out;
  CheckD1(ctx, extra);
  CheckD2(ctx);
  CheckC1(ctx);
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return out;
}

}  // namespace qkbfly::lint
