#include "lint/index.h"

#include <algorithm>

#include "lint/structure.h"

namespace qkbfly::lint {

namespace {

bool IsGuardType(const Token& t) {
  return Is(t, "lock_guard") || Is(t, "unique_lock") || Is(t, "scoped_lock") ||
         Is(t, "shared_lock");
}

bool IsGrowthCall(const Token& t) {
  return Is(t, "push_back") || Is(t, "emplace_back") || Is(t, "emplace") ||
         Is(t, "resize") || Is(t, "reserve") || Is(t, "insert") ||
         Is(t, "append") || Is(t, "assign");
}

bool IsCallKeyword(const Token& t) {
  return Is(t, "if") || Is(t, "for") || Is(t, "while") || Is(t, "switch") ||
         Is(t, "return") || Is(t, "sizeof") || Is(t, "catch") ||
         Is(t, "static_assert") || Is(t, "alignof") || Is(t, "decltype") ||
         Is(t, "assert") || Is(t, "noexcept");
}

/// Identifiers that can stand right before a name without being its type.
bool IsNonTypeWord(const Token& t) {
  return IsCallKeyword(t) || Is(t, "else") || Is(t, "new") ||
         Is(t, "delete") || Is(t, "throw") || Is(t, "case") || Is(t, "goto") ||
         Is(t, "class") || Is(t, "struct") || Is(t, "union") ||
         Is(t, "enum") || Is(t, "namespace") || Is(t, "public") ||
         Is(t, "private") || Is(t, "protected") || Is(t, "using") ||
         Is(t, "typedef") || Is(t, "operator") || Is(t, "template") ||
         Is(t, "typename") || Is(t, "auto") || Is(t, "virtual");
}

/// Records `name: type`; a second, different type makes the name ambiguous.
void RecordType(std::map<std::string, std::string>* types,
                const std::string& name, const std::string& type) {
  auto [it, added] = types->emplace(name, type);
  if (!added && it->second != type) it->second.clear();
}

/// Receivers whose growth is exempt from A1: the thread_local densify
/// workspace (retained capacity by design) and caller-owned out-parameters
/// (capacity retained across reuse by the caller — the runtime twin,
/// densify_alloc_test, measures steady-state allocations the same way).
bool IsExemptRoot(std::string_view ident) {
  return ident == "ws" || ident == "ws_" || ident == "workspace" ||
         ident == "workspace_" || ident == "out" || ident == "result" ||
         ident == "output";
}

struct FnScanner {
  const std::vector<Token>& toks;
  const Structure& s;

  const Token& Tok(size_t f) const { return toks[s.idx[f]]; }
  size_t Count() const { return s.idx.size(); }

  /// Receiver chain ending just before position `f`: the run of
  /// identifiers and `.`/`->`/`::` tokens, in source order.
  std::vector<const Token*> ChainBefore(size_t f) const {
    size_t j = f;
    while (j > 0 && (IsIdent(Tok(j - 1)) || Is(Tok(j - 1), ".") ||
                     Is(Tok(j - 1), "->") || Is(Tok(j - 1), "::"))) {
      --j;
    }
    std::vector<const Token*> chain;
    for (size_t k = j; k < f; ++k) chain.push_back(&Tok(k));
    return chain;
  }

  /// Declared type of the name at `f` when a type precedes it (`Type name`,
  /// `ns::Type<Args>& name`, `Type const* name`): the type's last identifier
  /// before its template arguments, or "" when no type precedes it. Looks
  /// no further back than position `lo`.
  std::string DeclaredType(size_t f, size_t lo) const {
    size_t j = f;
    while (j > lo && (Is(Tok(j - 1), "*") || Is(Tok(j - 1), "&") ||
                      Is(Tok(j - 1), "&&") || Is(Tok(j - 1), "const"))) {
      --j;
    }
    if (j > lo && Is(Tok(j - 1), ">")) {
      int depth = 0;
      do {
        --j;
        if (Is(Tok(j), ">")) ++depth;
        if (Is(Tok(j), "<")) --depth;
        if (Is(Tok(j), ";") || Is(Tok(j), "{") || Is(Tok(j), "}")) return "";
      } while (depth > 0 && j > lo);
      if (depth != 0) return "";
    }
    if (j <= lo || !IsIdent(Tok(j - 1)) || IsNonTypeWord(Tok(j - 1))) {
      return "";
    }
    return Tok(j - 1).text;
  }
};

/// Member part of a lock node: the identifiers of the mutex expression's
/// receiver chain joined with '.', so "shard.mutex" and "shard->mutex" fold
/// to one member while "store_shard.mutex" stays another.
std::string MemberChain(const std::vector<std::string>& idents) {
  if (idents.empty()) return "lock";
  std::string chain = idents.front();
  for (size_t k = 1; k < idents.size(); ++k) chain += "." + idents[k];
  return chain;
}

}  // namespace

std::string ModuleOf(std::string_view path) {
  std::string_view rest = path;
  if (rest.rfind("src/", 0) == 0) {
    rest.remove_prefix(4);
    size_t slash = rest.find('/');
    if (slash == std::string_view::npos) return "src";
    return std::string(rest.substr(0, slash));
  }
  size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return std::string(rest);
  return std::string(rest.substr(0, slash));
}

const IndexedFile* ProjectIndex::FindFile(std::string_view path) const {
  for (const IndexedFile& f : files) {
    if (f.path == path) return &f;
  }
  return nullptr;
}

bool ProjectIndex::IsAllowed(std::string_view file, int line,
                             Rule rule) const {
  const IndexedFile* f = FindFile(file);
  return f != nullptr && IsAllowedAt(f->allowed, line, rule);
}

void ProjectIndexBuilder::AddFile(std::string path, std::string_view source) {
  LexedFile lexed = Lex(source);
  Structure structure = BuildStructure(lexed.tokens);

  IndexedFile file;
  file.path = path;
  file.module = ModuleOf(path);
  file.allowed = lexed.allowed;

  // Include edges: `# include "x/y.h"` token triples (preproc tokens carry
  // line numbers; the normalized directive strings do not). System includes
  // in <...> never resolve to project files and are skipped here.
  const std::vector<Token>& all = lexed.tokens;
  for (size_t i = 0; i + 2 < all.size(); ++i) {
    if (!all[i].preproc || !Is(all[i], "#")) continue;
    if (!Is(all[i + 1], "include")) continue;
    if (all[i + 2].kind != Token::Kind::kString ||
        all[i + 2].text.size() < 3) {
      continue;
    }
    IncludeRef ref;
    ref.raw = all[i + 2].text.substr(1, all[i + 2].text.size() - 2);
    ref.line = all[i + 2].line;
    file.includes.push_back(std::move(ref));
  }

  FnScanner scan{lexed.tokens, structure};
  const size_t n = scan.Count();

  // Declared types. A function's parameters (its head's parentheses) and
  // locals are its own; other declarations whose innermost scope is a class
  // are that class's members.
  std::vector<size_t> head_of(n, kNoFunction);
  for (size_t r = 0; r < structure.functions.size(); ++r) {
    size_t params = structure.functions[r].params;
    if (!Is(scan.Tok(params), "(")) continue;
    size_t close = MatchClose(lexed.tokens, structure, params);
    for (size_t j = params + 1; j < close; ++j) head_of[j] = r;
  }
  std::vector<std::map<std::string, std::string>> locals(
      structure.functions.size());
  std::vector<size_t> open_scopes;  // indices into structure.scopes
  size_t next_scope = 0;
  for (size_t f = 0; f + 1 < n; ++f) {
    while (!open_scopes.empty() &&
           structure.scopes[open_scopes.back()].close != 0 &&
           structure.scopes[open_scopes.back()].close < f) {
      open_scopes.pop_back();
    }
    if (next_scope < structure.scopes.size() &&
        structure.scopes[next_scope].open == f) {
      open_scopes.push_back(next_scope++);
    }
    const Token& t = scan.Tok(f);
    if (Is(t, "using") && f + 2 < n && IsIdent(scan.Tok(f + 1)) &&
        Is(scan.Tok(f + 2), "=")) {
      // `using Alias = ns::Target<Args>;` -> Target.
      std::string target;
      int depth = 0;
      for (size_t j = f + 3; j < n && !Is(scan.Tok(j), ";"); ++j) {
        if (Is(scan.Tok(j), "<")) ++depth;
        if (Is(scan.Tok(j), ">")) --depth;
        if (depth == 0 && IsIdent(scan.Tok(j))) target = scan.Tok(j).text;
      }
      RecordType(&index_.type_aliases, scan.Tok(f + 1).text, target);
      continue;
    }
    if (!IsIdent(t)) continue;
    const Token& next = scan.Tok(f + 1);
    bool member_end = Is(next, ";") || Is(next, "=") || Is(next, "{") ||
                      Is(next, "[");
    bool local_end = member_end || Is(next, "(") || Is(next, ",") ||
                     Is(next, ")") || Is(next, ":");
    size_t fn_at = structure.enclosing_function[f];
    if (fn_at == kNoFunction) fn_at = head_of[f];
    if (fn_at != kNoFunction) {
      if (!local_end) continue;
      std::string type = scan.DeclaredType(f, 0);
      if (!type.empty()) RecordType(&locals[fn_at], t.text, type);
      continue;
    }
    if (!member_end || open_scopes.empty()) continue;
    const Scope& scope = structure.scopes[open_scopes.back()];
    if (scope.kind != ScopeKind::kClass) continue;
    std::string type = scan.DeclaredType(f, scope.open + 1);
    if (!type.empty()) {
      RecordType(&index_.member_types[scope.name], t.text, type);
    }
  }

  // Per-function facts.
  for (size_t r = 0; r < structure.functions.size(); ++r) {
    const FunctionRegion& region = structure.functions[r];
    IndexedFunction fn;
    fn.local_types = std::move(locals[r]);
    fn.file = path;
    fn.name = region.name;
    fn.qualified = region.qualified;
    size_t sep = region.qualified.rfind("::");
    const std::string owner = sep == std::string::npos
                                  ? file.module
                                  : region.qualified.substr(0, sep);

    // Alias pass: `auto& name = ws_->...;` makes `name` an exempt growth
    // receiver inside this function.
    std::set<std::string> exempt_aliases;
    for (size_t f = region.open; f + 3 < region.close && f + 3 < n; ++f) {
      if (!Is(scan.Tok(f), "auto")) continue;
      size_t j = f + 1;
      while (j < n && (Is(scan.Tok(j), "&") || Is(scan.Tok(j), "&&") ||
                       Is(scan.Tok(j), "const"))) {
        ++j;
      }
      if (j + 2 >= n || !IsIdent(scan.Tok(j)) || !Is(scan.Tok(j + 1), "=") ||
          !IsIdent(scan.Tok(j + 2))) {
        continue;
      }
      if (IsExemptRoot(scan.Tok(j + 2).text) ||
          exempt_aliases.count(scan.Tok(j + 2).text) > 0) {
        exempt_aliases.insert(scan.Tok(j).text);
      }
    }

    struct HeldLock {
      std::string node;
      int depth = 0;
    };
    std::vector<HeldLock> held;
    int depth = 0;
    // Token indices of guard variable names (`std::scoped_lock g(...)`):
    // `g(` would otherwise be re-scanned as a call site.
    std::set<size_t> guard_var_toks;

    for (size_t f = region.open; f < region.close && f < n; ++f) {
      const Token& t = scan.Tok(f);
      if (Is(t, "{")) ++depth;
      if (Is(t, "}")) {
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
        continue;
      }

      // --- Lock acquisitions -------------------------------------------
      bool is_guard = IsGuardType(t);
      bool is_lock_call = Is(t, "lock") && f > region.open &&
                          (Is(scan.Tok(f - 1), ".") ||
                           Is(scan.Tok(f - 1), "->")) &&
                          f + 1 < n && Is(scan.Tok(f + 1), "(");
      if (is_guard || is_lock_call) {
        // Each entry: the ident components of one mutex expression.
        std::vector<std::vector<std::string>> member_chains;
        std::vector<std::string> exprs;
        if (is_guard) {
          size_t i = f + 1;
          if (i < n && Is(scan.Tok(i), "<")) {
            i = SkipAngles(lexed.tokens, structure, i);
          }
          if (i < n && IsIdent(scan.Tok(i))) {
            guard_var_toks.insert(i);
            ++i;  // guard variable name
          }
          if (i >= n || !Is(scan.Tok(i), "(")) continue;
          size_t close = MatchClose(lexed.tokens, structure, i);
          std::vector<std::string> idents;
          std::string expr;
          int pdepth = 0;
          for (size_t j = i + 1; j <= close && j < n; ++j) {
            const Token& a = scan.Tok(j);
            if (Is(a, "(") || Is(a, "[")) ++pdepth;
            if (Is(a, ")") || Is(a, "]")) --pdepth;
            bool at_end = j == close;
            if ((Is(a, ",") && pdepth == 0) || at_end) {
              // `std::defer_lock` etc. are tag arguments, not mutexes.
              bool tag = expr.find("defer_lock") != std::string::npos ||
                         expr.find("adopt_lock") != std::string::npos ||
                         expr.find("try_to_lock") != std::string::npos;
              if (!expr.empty() && !tag) {
                member_chains.push_back(idents);
                exprs.push_back(expr);
              }
              idents.clear();
              expr.clear();
              continue;
            }
            // Subscripts and call arguments are not part of the chain.
            if (IsIdent(a) && !Is(a, "std") && pdepth == 0) {
              idents.push_back(a.text);
            }
            expr += a.text;
          }
        } else {
          // `X.lock()` / `X->lock()`: the receiver chain before the '.'.
          std::vector<std::string> idents;
          std::string expr;
          for (const Token* p : scan.ChainBefore(f - 1)) {
            expr += p->text;
            if (IsIdent(*p)) idents.push_back(p->text);
          }
          if (expr.empty()) continue;
          member_chains.push_back(idents);
          exprs.push_back(expr);
        }
        // Order edges from every lock held before this site to every newly
        // acquired one; none among the members of one scoped_lock.
        const size_t held_before = held.size();
        for (size_t k = 0; k < exprs.size(); ++k) {
          std::string node = owner + "::" + MemberChain(member_chains[k]);
          for (size_t h = 0; h < held_before; ++h) {
            if (held[h].node != node) {
              fn.lock_edges.push_back({held[h].node, node, t.line});
            }
          }
          fn.locks.push_back({node, exprs[k]});
          held.push_back({node, depth});
        }
        continue;
      }

      // --- Allocation sites --------------------------------------------
      if (Is(t, "new")) {
        if (f + 1 < n && Is(scan.Tok(f + 1), "(")) continue;  // placement
        AllocSite site;
        site.what = "new";
        site.line = t.line;
        fn.allocs.push_back(std::move(site));
        continue;
      }
      if ((Is(t, "make_unique") || Is(t, "make_shared")) && f + 1 < n &&
          (Is(scan.Tok(f + 1), "<") || Is(scan.Tok(f + 1), "("))) {
        AllocSite site;
        site.what = t.text;
        site.line = t.line;
        fn.allocs.push_back(std::move(site));
        continue;
      }
      if (IsGrowthCall(t) && f > region.open && f + 1 < n &&
          Is(scan.Tok(f + 1), "(") &&
          (Is(scan.Tok(f - 1), ".") || Is(scan.Tok(f - 1), "->"))) {
        // The receiver plus its trailing '.'/'->'.
        std::string first;
        AllocSite site;
        for (const Token* p : scan.ChainBefore(f)) {
          site.receiver += p->text;
          if (first.empty() && IsIdent(*p)) first = p->text;
        }
        site.what = t.text;
        site.line = t.line;
        site.exempt =
            IsExemptRoot(first) || exempt_aliases.count(first) > 0;
        fn.allocs.push_back(std::move(site));
        continue;
      }

      // --- Call sites --------------------------------------------------
      if (IsIdent(t) && !IsCallKeyword(t) && !IsGuardType(t) &&
          guard_var_toks.count(f) == 0 && f + 1 < n &&
          Is(scan.Tok(f + 1), "(")) {
        // `new Foo(...)` is recorded as an allocation above, not a call;
        // `.lock()` is a lock site.
        if (f > region.open && Is(scan.Tok(f - 1), "new")) continue;
        CallSite call;
        call.name = t.text;
        call.line = t.line;
        if (f >= region.open + 2 && Is(scan.Tok(f - 1), "::") &&
            IsIdent(scan.Tok(f - 2))) {
          call.qualifier = scan.Tok(f - 2).text;
        }
        // Receiver chain `a.b->name(`, read backwards from the call.
        for (size_t j = f; j > region.open + 1 && (Is(scan.Tok(j - 1), ".") ||
                                                   Is(scan.Tok(j - 1), "->"));
             j -= 2) {
          if (!IsIdent(scan.Tok(j - 2))) {
            call.receiver_opaque = true;
            break;
          }
          call.receiver.insert(call.receiver.begin(), scan.Tok(j - 2).text);
        }
        for (const HeldLock& h : held) call.held.push_back(h.node);
        fn.calls.push_back(std::move(call));
      }
    }
    index_.functions.push_back(std::move(fn));
  }

  index_.files.push_back(std::move(file));
}

ProjectIndex ProjectIndexBuilder::Build() {
  std::sort(index_.files.begin(), index_.files.end(),
            [](const IndexedFile& a, const IndexedFile& b) {
              return a.path < b.path;
            });
  // Resolve includes by exact or unique path-suffix match against the
  // indexed file set ("util/json.h" -> "src/util/json.h").
  for (IndexedFile& file : index_.files) {
    for (IncludeRef& ref : file.includes) {
      std::string match;
      int hits = 0;
      for (const IndexedFile& cand : index_.files) {
        bool ok = cand.path == ref.raw;
        if (!ok && cand.path.size() > ref.raw.size() + 1) {
          size_t at = cand.path.size() - ref.raw.size();
          ok = cand.path[at - 1] == '/' &&
               cand.path.compare(at, std::string::npos, ref.raw) == 0;
        }
        if (ok) {
          match = cand.path;
          ++hits;
        }
      }
      if (hits == 1) ref.resolved = match;
    }
  }
  for (size_t i = 0; i < index_.functions.size(); ++i) {
    index_.functions_by_name[index_.functions[i].name].push_back(i);
    index_.functions_by_qualified[index_.functions[i].qualified].push_back(i);
  }
  return std::move(index_);
}

}  // namespace qkbfly::lint
