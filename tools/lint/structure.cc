#include "lint/structure.h"

namespace qkbfly::lint {

namespace {

bool IsQualifierToken(const Token& t) {
  return Is(t, "const") || Is(t, "noexcept") || Is(t, "override") ||
         Is(t, "final") || Is(t, "mutable") || Is(t, "&") || Is(t, "&&") ||
         Is(t, "->") || IsIdent(t) || Is(t, "::") || Is(t, "<") || Is(t, ">") ||
         Is(t, "*");
}

/// Classifies the '{' at filtered position `at` by looking backwards. For a
/// function body, `name` receives the possibly-qualified head name
/// ("Class::Method" or "Class::~Class" for out-of-line definitions,
/// "Method" otherwise) and `params` the position of its parameter list's
/// '('; for a class or namespace, `name` receives its name.
ScopeKind ClassifyBrace(const std::vector<Token>& toks,
                        const std::vector<size_t>& idx, size_t at,
                        bool inside_function, std::string* name,
                        size_t* params) {
  if (inside_function) return ScopeKind::kBlock;
  if (at == 0) return ScopeKind::kBlock;
  // Walk back over the "head" of the construct: stop at ; } { or the start.
  size_t i = at;
  size_t prev = at - 1;
  const Token& p = toks[idx[prev]];
  if (Is(p, "=") || Is(p, ",") || Is(p, "(") || Is(p, "[") || Is(p, "{") ||
      Is(p, "return")) {
    return ScopeKind::kBlock;  // braced initializer
  }
  // Function body: `...) {`, possibly with trailing qualifiers.
  {
    size_t q = prev;
    while (q > 0 && (Is(toks[idx[q]], "const") || Is(toks[idx[q]], "noexcept") ||
                     Is(toks[idx[q]], "override") || Is(toks[idx[q]], "final"))) {
      --q;
    }
    if (Is(toks[idx[q]], ")")) {
      // Match back to the opening '(' and take the (possibly ::-qualified)
      // identifier chain before it.
      int depth = 0;
      size_t j = q;
      while (j > 0) {
        if (Is(toks[idx[j]], ")")) ++depth;
        if (Is(toks[idx[j]], "(") && --depth == 0) break;
        --j;
      }
      *params = j;
      if (j > 0 && IsIdent(toks[idx[j - 1]])) {
        // Collect `A :: B :: Name` backwards from the token before '('.
        size_t k = j - 1;
        std::string joined = toks[idx[k]].text;
        if (k >= 1 && Is(toks[idx[k - 1]], "~")) {
          joined = "~" + joined;  // destructor
          --k;
        }
        while (k >= 2 && Is(toks[idx[k - 1]], "::") &&
               IsIdent(toks[idx[k - 2]])) {
          joined = toks[idx[k - 2]].text + "::" + joined;
          k -= 2;
        }
        *name = joined;
      }
      return ScopeKind::kFunction;
    }
  }
  // namespace / class heads: scan back while head-ish tokens.
  while (i > 0) {
    --i;
    const Token& t = toks[idx[i]];
    if (Is(t, ";") || Is(t, "}") || Is(t, "{") || Is(t, ")")) break;
    if (Is(t, "namespace")) {
      if (i + 1 < at && IsIdent(toks[idx[i + 1]])) {
        *name = toks[idx[i + 1]].text;
      }
      return ScopeKind::kNamespace;
    }
    if (Is(t, "class") || Is(t, "struct") || Is(t, "union") || Is(t, "enum")) {
      if (i + 1 < at && IsIdent(toks[idx[i + 1]])) {
        *name = toks[idx[i + 1]].text;
      }
      return ScopeKind::kClass;
    }
    if (!IsQualifierToken(t) && !Is(t, ":") && !Is(t, ",") &&
        !Is(t, "public") && !Is(t, "private") && !Is(t, "protected") &&
        t.kind != Token::Kind::kNumber) {
      break;
    }
  }
  return ScopeKind::kBlock;
}

}  // namespace

Structure BuildStructure(const std::vector<Token>& toks) {
  Structure s;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].preproc) s.idx.push_back(i);
  }
  std::vector<size_t> open_stack;       // indices into s.scopes
  std::vector<size_t> fn_stack;         // indices into s.functions
  std::vector<std::string> class_stack; // names of open class scopes
  s.enclosing_function.assign(s.idx.size(), kNoFunction);
  for (size_t f = 0; f < s.idx.size(); ++f) {
    s.enclosing_function[f] = fn_stack.empty() ? kNoFunction : fn_stack.back();
    const Token& t = toks[s.idx[f]];
    if (Is(t, "{")) {
      Scope sc;
      sc.open = f;
      FunctionRegion fr;
      sc.kind = ClassifyBrace(toks, s.idx, f, !fn_stack.empty(), &sc.name,
                              &fr.params);
      if (sc.kind == ScopeKind::kFunction) {
        fr.qualified = sc.name;
        size_t sep = sc.name.rfind("::");
        fr.name = sep == std::string::npos ? sc.name : sc.name.substr(sep + 2);
        if (sep == std::string::npos && !class_stack.empty()) {
          // Inline method: qualify with the innermost enclosing class.
          fr.qualified = class_stack.back() + "::" + fr.name;
        }
        fr.open = f;
        s.functions.push_back(fr);
        fn_stack.push_back(s.functions.size() - 1);
      } else if (sc.kind == ScopeKind::kClass) {
        class_stack.push_back(sc.name);
      }
      s.scopes.push_back(sc);
      open_stack.push_back(s.scopes.size() - 1);
    } else if (Is(t, "}")) {
      if (!open_stack.empty()) {
        Scope& sc = s.scopes[open_stack.back()];
        sc.close = f;
        if (sc.kind == ScopeKind::kFunction && !fn_stack.empty()) {
          s.functions[fn_stack.back()].close = f;
          fn_stack.pop_back();
        } else if (sc.kind == ScopeKind::kClass && !class_stack.empty()) {
          class_stack.pop_back();
        }
        open_stack.pop_back();
      }
    }
  }
  // Unterminated regions extend to EOF.
  for (FunctionRegion& fr : s.functions) {
    if (fr.close == 0) fr.close = s.idx.empty() ? 0 : s.idx.size() - 1;
  }
  return s;
}

bool AtNamespaceScope(const Structure& s, size_t f) {
  for (const Scope& sc : s.scopes) {
    size_t close = sc.close == 0 ? static_cast<size_t>(-1) : sc.close;
    if (sc.open < f && f < close && sc.kind != ScopeKind::kNamespace) {
      return false;
    }
  }
  return true;
}

size_t SkipAngles(const std::vector<Token>& toks, const Structure& s,
                  size_t f) {
  int depth = 0;
  for (size_t i = f; i < s.idx.size(); ++i) {
    const Token& t = toks[s.idx[i]];
    if (Is(t, "<")) ++depth;
    if (Is(t, ">") && --depth == 0) return i + 1;
    if (Is(t, ";")) return i;
  }
  return s.idx.size();
}

size_t MatchClose(const std::vector<Token>& toks, const Structure& s,
                  size_t open) {
  const std::string& opener = toks[s.idx[open]].text;
  const char* closer = opener == "{" ? "}" : ")";
  int depth = 0;
  for (size_t i = open; i < s.idx.size(); ++i) {
    const Token& t = toks[s.idx[i]];
    if (Is(t, opener)) ++depth;
    if (Is(t, closer) && --depth == 0) return i;
  }
  return s.idx.size();
}

}  // namespace qkbfly::lint
