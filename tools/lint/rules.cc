// Rule passes of qkbfly-lint. Everything here is a token-level heuristic:
// scope structure comes from brace classification, types from declaration
// shapes, data flow from "mutated in the loop, returned from the function".
// False positives are expected and handled by allow() markers or the
// baseline; the rules err toward catching the determinism hazards that the
// byte-identical-KB tests can only detect after the fact.
#include <algorithm>
#include <cstddef>

#include "lint/lint.h"
#include "lint/structure.h"

namespace qkbfly::lint {

namespace {

bool Is(const Token& t, std::string_view text) { return t.text == text; }
bool IsIdent(const Token& t) { return t.kind == Token::Kind::kIdent; }

constexpr size_t kNone = static_cast<size_t>(-1);

// ---------------------------------------------------------------------------
// Shared helpers (scope structure itself lives in lint/structure.h, shared
// with the whole-program indexer)
// ---------------------------------------------------------------------------

struct Context {
  const std::vector<Token>* toks = nullptr;
  const Structure* structure = nullptr;
  const LexedFile* lexed = nullptr;
  std::string path;
  FileClass file_class;
  std::vector<Diagnostic>* out = nullptr;
};

const Token& Tok(const Context& ctx, size_t f) {
  return (*ctx.toks)[ctx.structure->idx[f]];
}
size_t Count(const Context& ctx) { return ctx.structure->idx.size(); }

void Report(const Context& ctx, Rule rule, int line, std::string key,
            std::string message) {
  // allow() markers on the diagnostic line or the line above it.
  for (int l : {line, line - 1}) {
    auto it = ctx.lexed->allowed.find(l);
    if (it == ctx.lexed->allowed.end()) continue;
    if (it->second.count("*") > 0 || it->second.count(RuleName(rule)) > 0) {
      return;
    }
  }
  Diagnostic d;
  d.rule = rule;
  d.file = ctx.path;
  d.line = line;
  d.key = std::move(key);
  d.message = std::move(message);
  ctx.out->push_back(std::move(d));
}

/// Skips a balanced `<...>` starting at `f` (which must be '<'); returns the
/// position just past the matching '>'. Treats unbalanced input leniently.
size_t SkipAngles(const Context& ctx, size_t f) {
  int depth = 0;
  size_t n = Count(ctx);
  for (size_t i = f; i < n; ++i) {
    if (Is(Tok(ctx, i), "<")) ++depth;
    if (Is(Tok(ctx, i), ">") && --depth == 0) return i + 1;
    // A ';' inside template args means we mis-detected a comparison.
    if (Is(Tok(ctx, i), ";")) return i;
  }
  return n;
}

size_t MatchParen(const Context& ctx, size_t open) {
  int depth = 0;
  for (size_t i = open; i < Count(ctx); ++i) {
    if (Is(Tok(ctx, i), "(")) ++depth;
    if (Is(Tok(ctx, i), ")") && --depth == 0) return i;
  }
  return Count(ctx);
}

size_t MatchBrace(const Context& ctx, size_t open) {
  int depth = 0;
  for (size_t i = open; i < Count(ctx); ++i) {
    if (Is(Tok(ctx, i), "{")) ++depth;
    if (Is(Tok(ctx, i), "}") && --depth == 0) return i;
  }
  return Count(ctx);
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
    size_t after = SkipAngles(ctx, f + 1);
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
      size_t close = MatchParen(ctx, f + 1);
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
        loop.body_close = MatchBrace(ctx, close + 1);
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
            size_t close = MatchParen(ctx, f + 1);
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
  if (!ctx.file_class.deterministic_path) return;
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
      size_t end = SkipAngles(ctx, f + 1);
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

// ---------------------------------------------------------------------------
// C2 — thread hygiene and lock ordering
// ---------------------------------------------------------------------------

/// Documented lock order (outer acquired before inner):
///   rank 1  ThreadPool queue mutex        (name contains "pool" or lives in
///                                          util/thread_pool)
///   rank 2  query-level lock              (name contains "qshard" or "query";
///                                          none since the query tier became
///                                          a memo::ShardedLru)
///   rank 3  memo::ShardedLru shard        (name contains "shard": the doc
///                                          tier, the query tier and the
///                                          LooseCandidates memo)
///   rank 4  FactStore shard               (name contains "store")
///   rank 5  service metrics               (name contains "metrics")
/// Acquiring a lower rank while holding a higher one inverts the order.
/// Substring checks are ordered most-specific first: "qshard" and "store"
/// would both also match the bare doc-tier "shard" pattern.
int LockRank(const Context& ctx, const std::string& expr) {
  auto contains = [&](const char* needle) {
    return expr.find(needle) != std::string::npos;
  };
  if (contains("qshard") || contains("query")) return 2;
  if (contains("store")) return 4;
  if (contains("shard")) return 3;
  if (contains("metrics")) return 5;
  if (contains("pool") ||
      ctx.path.find("thread_pool") != std::string::npos) {
    return 1;
  }
  return 0;
}

void CheckC2(const Context& ctx) {
  size_t n = Count(ctx);
  for (size_t f = 0; f + 2 < n; ++f) {
    if ((Is(Tok(ctx, f), ".") || Is(Tok(ctx, f), "->")) &&
        Is(Tok(ctx, f + 1), "detach") && Is(Tok(ctx, f + 2), "(")) {
      Report(ctx, Rule::kC2, Tok(ctx, f).line, "detach",
             "thread detach() abandons the thread past the enclosing scope; "
             "fix-it: join through ThreadPool (drain-on-destroy) or keep the "
             "std::thread joinable and join it");
    }
    if (Is(Tok(ctx, f), "new") &&
        (Is(Tok(ctx, f + 1), "thread") ||
         (Is(Tok(ctx, f + 1), "std") && Is(Tok(ctx, f + 2), "::") && f + 3 < n &&
          Is(Tok(ctx, f + 3), "thread")))) {
      Report(ctx, Rule::kC2, Tok(ctx, f).line, "new-thread",
             "raw `new std::thread` escapes RAII ownership; fix-it: use "
             "util/thread_pool (futures, drain-on-destroy) or a joined "
             "std::jthread-style wrapper");
    }
  }

  // Lock-order tracking per function.
  struct Held {
    int rank = 0;
    int depth = 0;
    std::string expr;
  };
  for (const FunctionRegion& fn : ctx.structure->functions) {
    std::vector<Held> held;
    int depth = 0;
    for (size_t f = fn.open; f < fn.close; ++f) {
      const Token& t = Tok(ctx, f);
      if (Is(t, "{")) ++depth;
      if (Is(t, "}")) {
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
      }
      bool guard_type = Is(t, "lock_guard") || Is(t, "unique_lock") ||
                        Is(t, "scoped_lock") || Is(t, "shared_lock");
      bool lock_call = Is(t, "lock") && f > fn.open &&
                       (Is(Tok(ctx, f - 1), ".") || Is(Tok(ctx, f - 1), "->")) &&
                       f + 1 < n && Is(Tok(ctx, f + 1), "(");
      std::string expr;
      int line = t.line;
      if (guard_type) {
        size_t i = f + 1;
        if (i < n && Is(Tok(ctx, i), "<")) i = SkipAngles(ctx, i);
        if (i < n && IsIdent(Tok(ctx, i))) ++i;  // guard variable name
        if (i >= n || !Is(Tok(ctx, i), "(")) continue;
        size_t close = MatchParen(ctx, i);
        for (size_t j = i + 1; j < close; ++j) expr += Tok(ctx, j).text;
      } else if (lock_call) {
        // Collect the receiver chain backwards: idents, '.', '->', '::'.
        size_t j = f - 1;
        std::vector<std::string> parts;
        while (j > fn.open) {
          const Token& p = Tok(ctx, j);
          if (IsIdent(p) || Is(p, ".") || Is(p, "->") || Is(p, "::")) {
            parts.push_back(p.text);
            --j;
          } else {
            break;
          }
        }
        for (auto it = parts.rbegin(); it != parts.rend(); ++it) expr += *it;
      } else {
        continue;
      }
      int rank = LockRank(ctx, expr);
      if (rank == 0) continue;
      for (const Held& h : held) {
        if (h.rank > rank) {
          Report(ctx, Rule::kC2, line, expr,
                 "acquiring rank-" + std::to_string(rank) + " mutex '" + expr +
                     "' while holding rank-" + std::to_string(h.rank) +
                     " mutex '" + h.expr + "' inverts the documented "
                     "ThreadPool -> query-tier -> doc-tier -> store-shard "
                     "-> metrics lock order; "
                     "fix-it: release the inner lock first or restructure so "
                     "outer locks are taken first");
          break;
        }
      }
      held.push_back({rank, depth, expr});
    }
  }
}

// ---------------------------------------------------------------------------
// H1 — header guards and tagged TODO(...) debt markers
// ---------------------------------------------------------------------------

void CheckH1(const Context& ctx) {
  if (ctx.file_class.is_header) {
    bool guarded = false;
    const auto& dirs = ctx.lexed->directives;
    for (size_t i = 0; i < dirs.size(); ++i) {
      if (dirs[i].rfind("#pragma once", 0) == 0) {
        guarded = true;
        break;
      }
      if (dirs[i].rfind("#ifndef ", 0) == 0 && i + 1 < dirs.size() &&
          dirs[i + 1].rfind("#define ", 0) == 0) {
        guarded = true;
        break;
      }
      // Any other directive before the guard (includes, conditionals) means
      // the header is not guard-first; only comments may precede the guard.
      break;
    }
    if (dirs.empty()) guarded = true;  // header with no preprocessor at all
    if (!guarded) {
      Report(ctx, Rule::kH1, 1, "guard",
             "header lacks a leading include guard; fix-it: open with "
             "`#ifndef QKBFLY_<PATH>_H_` + `#define` (project style) or "
             "`#pragma once`");
    }
  }
  for (const Comment& c : ctx.lexed->comments) {
    for (const char* marker : {"TODO", "FIXME"}) {
      size_t at = c.text.find(marker);
      if (at == std::string::npos) continue;
      // Accept "TODO(tag):" with a non-empty tag.
      size_t open = at + std::string_view(marker).size();
      bool tagged = open < c.text.size() && c.text[open] == '(' &&
                    c.text.find(')', open) != std::string::npos &&
                    c.text.find(')', open) > open + 1;
      if (!tagged) {
        Report(ctx, Rule::kH1, c.line, "todo",
               std::string(marker) + " without an issue tag; fix-it: write " +
                   marker + "(#NNN) or " + marker + "(owner) so the debt is "
                   "trackable");
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// O1 — metric/span names must be snake_case string literals
// ---------------------------------------------------------------------------

/// `"snake_case_body"` including the quotes the lexer preserves.
bool IsSnakeCaseLiteral(const Token& t) {
  if (t.kind != Token::Kind::kString || t.text.size() < 3) return false;
  std::string_view body(t.text);
  body.remove_prefix(1);
  body.remove_suffix(1);
  if (body.front() < 'a' || body.front() > 'z') return false;
  for (char c : body) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

/// Registration/span calls whose name argument (0-based index) rule O1
/// validates. ScopedSpan takes (context, name).
struct ObsCallee {
  const char* name;
  size_t name_arg;
};
constexpr ObsCallee kObsCallees[] = {
    {"GetCounter", 0},   {"GetGauge", 0},  {"GetHistogram", 0},
    {"StartSpan", 0},    {"ScopedSpan", 1},
};

void CheckO1(const Context& ctx) {
  size_t n = Count(ctx);
  for (size_t f = 0; f + 1 < n; ++f) {
    const Token& t = Tok(ctx, f);
    if (!IsIdent(t)) continue;
    const ObsCallee* callee = nullptr;
    for (const ObsCallee& c : kObsCallees) {
      if (t.text == c.name) {
        callee = &c;
        break;
      }
    }
    if (callee == nullptr) continue;
    // Call shapes: `Callee(...)` and — for the RAII helper — the declaration
    // form `ScopedSpan var(...)`.
    size_t paren;
    if (Is(Tok(ctx, f + 1), "(")) {
      paren = f + 1;
    } else if (t.text == std::string_view("ScopedSpan") && f + 2 < n &&
               IsIdent(Tok(ctx, f + 1)) && Is(Tok(ctx, f + 2), "(")) {
      paren = f + 2;
    } else {
      continue;
    }
    size_t close = MatchParen(ctx, paren);
    if (close >= n) continue;
    // Skip the functions' own declarations/definitions: their parameter
    // lists spell a type (`const char* name`, `string_view`).
    bool is_declaration = false;
    for (size_t i = paren + 1; i < close; ++i) {
      const Token& a = Tok(ctx, i);
      if (Is(a, "const") || Is(a, "char") || Is(a, "string_view")) {
        is_declaration = true;
        break;
      }
    }
    if (is_declaration || close == paren + 1) continue;
    // Split the argument list at top-level commas; find the name argument.
    size_t arg_begin = paren + 1;
    size_t arg_index = 0;
    int depth = 0;
    size_t name_begin = 0, name_end = 0;
    for (size_t i = paren + 1; i <= close; ++i) {
      const Token& a = Tok(ctx, i);
      if (Is(a, "(") || Is(a, "[") || Is(a, "{") || Is(a, "<")) ++depth;
      if (Is(a, ")") || Is(a, "]") || Is(a, "}") || Is(a, ">")) --depth;
      bool at_end = i == close;
      if ((Is(a, ",") && depth == 0) || (at_end && depth < 0)) {
        if (arg_index == callee->name_arg) {
          name_begin = arg_begin;
          name_end = i;
          break;
        }
        ++arg_index;
        arg_begin = i + 1;
      }
    }
    if (name_end == 0) continue;  // fewer arguments than the name index
    bool ok = name_end == name_begin + 1 &&
              IsSnakeCaseLiteral(Tok(ctx, name_begin));
    if (ok) continue;
    // Key on the callee plus the first identifying token of the bad
    // argument, so the baseline entry survives line shifts.
    std::string detail = "expr";
    bool has_literal = false;
    for (size_t i = name_begin; i < name_end; ++i) {
      const Token& a = Tok(ctx, i);
      if (a.kind == Token::Kind::kString) has_literal = true;
      if (detail == "expr" && (IsIdent(a) || a.kind == Token::Kind::kString)) {
        detail = a.text;
      }
    }
    std::string problem =
        has_literal
            ? "name is not a snake_case string literal"
            : "name is computed at runtime (allocates on the hot path)";
    Report(ctx, Rule::kO1, t.line, std::string(callee->name) + "/" + detail,
           std::string(callee->name) + ": " + problem +
               "; fix-it: pass a `[a-z][a-z0-9_]*` literal and encode any "
               "dynamic dimension as a span attribute instead");
  }
}

}  // namespace

FileClass ClassifyPath(std::string_view path) {
  FileClass fc;
  auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.substr(path.size() - suffix.size()) == suffix;
  };
  fc.is_header = ends_with(".h") || ends_with(".hpp");
  auto contains = [&](std::string_view part) {
    return path.find(part) != std::string_view::npos;
  };
  bool in_src = path.rfind("src/", 0) == 0 || contains("/src/");
  bool excluded = contains("bench/") || contains("examples/") ||
                  contains("tests/") || contains("synth/");
  fc.deterministic_path = in_src && !excluded;
  return fc;
}

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
  ctx.file_class = ClassifyPath(path);
  ctx.out = &out;
  CheckD1(ctx, extra);
  CheckD2(ctx);
  CheckC1(ctx);
  CheckC2(ctx);
  CheckH1(ctx);
  CheckO1(ctx);
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return out;
}

}  // namespace qkbfly::lint
