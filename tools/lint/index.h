// ProjectIndex: phase 1 of the whole-program analyzer. Each source file is
// lexed once and reduced to cross-file facts — include edges, declared
// functions/methods with brace-span ownership, lock-acquisition sites
// resolved to named nodes, call edges by qualified-name token matching (with
// each call's receiver chain), the declared types of members, parameters and
// locals, and allocation/growth sites with their receivers. Phase 2
// (lint/wholeprogram.h) runs the L1/C3/A1 rules over the finished index.
//
// Everything is plain data in ordered containers: index construction and
// every downstream rule are deterministic for a given file set.
#ifndef QKBFLY_TOOLS_LINT_INDEX_H_
#define QKBFLY_TOOLS_LINT_INDEX_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lint.h"

namespace qkbfly::lint {

/// A call site `name(...)` or `Qualifier::name(...)` inside a function body.
struct CallSite {
  std::string name;       ///< Unqualified callee identifier.
  std::string qualifier;  ///< Innermost explicit `X::` qualifier, or "".
  /// Identifiers of the `a.b->` chain the call is made on ({"a", "b"});
  /// empty for a call without receiver.
  std::vector<std::string> receiver;
  /// The receiver ends in something other than an identifier (`f().g()`,
  /// `v[i].g()`), so its type is unknown.
  bool receiver_opaque = false;
  int line = 0;
  /// Lock nodes held at the call (for cross-function C3 edges).
  std::vector<std::string> held;
};

/// An allocation or container-growth site inside a function body.
struct AllocSite {
  std::string what;      ///< "new", "make_unique", "make_shared", or the
                         ///< growth call ("push_back", "resize", ...).
  std::string receiver;  ///< Receiver chain of a growth call ("ws.buf",
                         ///< "result->order"); "" for operator new.
  int line = 0;
  bool exempt = false;   ///< Workspace / out-param / alias exemption.
};

/// One lock acquisition resolved to a node name. The members of one
/// multi-mutex `std::scoped_lock(a, b)` are acquired atomically
/// (deadlock-free by construction), so the index draws no order edges
/// between them.
struct LockAcquisition {
  std::string node;  ///< "Owner::chain" — see ProjectIndexBuilder docs.
  std::string expr;  ///< Raw receiver expression at the site.
};

/// Intra-function acquired-while-held pair; `line` is the inner acquisition.
struct LockEdge {
  std::string outer;
  std::string inner;
  int line = 0;
};

struct IndexedFunction {
  std::string file;
  std::string name;       ///< Unqualified ("Densify").
  std::string qualified;  ///< "GreedyDensifier::Densify" when detectable.
  std::vector<CallSite> calls;
  std::vector<AllocSite> allocs;
  std::vector<LockAcquisition> locks;
  std::vector<LockEdge> lock_edges;
  /// Parameter and local name -> declared type name (the last identifier
  /// before any template arguments: "ShardedLru" for
  /// `memo::ShardedLru<X>&`); "" when the function declares it twice with
  /// different types.
  std::map<std::string, std::string> local_types;
};

/// An `#include "..."` directive; `resolved` is the indexed file it names
/// (by path-suffix match) or "" for external headers.
struct IncludeRef {
  std::string raw;
  std::string resolved;
  int line = 0;
};

struct IndexedFile {
  std::string path;    ///< Repo-relative ("src/util/json.h").
  std::string module;  ///< "util" for src/util/**, else the top directory.
  std::vector<IncludeRef> includes;
  /// line -> rules allowed by `qkbfly-lint: allow(...)` (copied from the
  /// lexer so whole-program rules honor site suppressions and A1 can treat
  /// an allowed call line as a reachability barrier).
  std::map<int, std::set<std::string>> allowed;
};

struct ProjectIndex {
  std::vector<IndexedFile> files;          ///< Sorted by path.
  std::vector<IndexedFunction> functions;  ///< File order, then body order.
  /// Unqualified name -> indices into `functions`.
  std::map<std::string, std::vector<size_t>> functions_by_name;
  /// Qualified name -> indices into `functions`.
  std::map<std::string, std::vector<size_t>> functions_by_qualified;
  /// Class name -> data member name -> declared type name, as in
  /// IndexedFunction::local_types ("" when declared with different types).
  std::map<std::string, std::map<std::string, std::string>> member_types;
  /// `using Alias = ns::Target<...>;` -> "Target" ("" when ambiguous).
  std::map<std::string, std::string> type_aliases;

  const IndexedFile* FindFile(std::string_view path) const;

  /// True when `rule` is allowed (site marker) on `line` or the line above
  /// it in `file`.
  bool IsAllowed(std::string_view file, int line, Rule rule) const;
};

/// Module name for a repo-relative path: "src/<m>/..." -> "<m>", otherwise
/// the first path component ("tools", "bench", "examples", "tests").
std::string ModuleOf(std::string_view path);

/// Builds a ProjectIndex incrementally so tests can index in-memory
/// fixtures. AddFile lexes immediately; Build() resolves include edges and
/// the name maps. Lock nodes are named "Owner::chain" where Owner is the
/// class of the enclosing method (or the file's module for free functions)
/// and chain is the receiver expression's identifiers joined with '.'
/// (subscripts and call arguments dropped). So "shard.mutex" inside
/// ShardedLru::FetchOrCompute and "shard->mutex" inside ShardedLru::Clear
/// fold to one node "ShardedLru::shard.mutex", while "store_shard.mutex"
/// and "shard.mutex" in one function stay two nodes with an edge between.
class ProjectIndexBuilder {
 public:
  void AddFile(std::string path, std::string_view source);
  ProjectIndex Build();

 private:
  ProjectIndex index_;
};

}  // namespace qkbfly::lint

#endif  // QKBFLY_TOOLS_LINT_INDEX_H_
