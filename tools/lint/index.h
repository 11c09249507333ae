// ProjectIndex: phase 1 of the whole-program analyzer. Each source file is
// lexed once and reduced to cross-file facts — include edges, declared
// functions/methods with brace-span ownership, lock-acquisition sites
// resolved to named nodes, call edges by qualified-name token matching, and
// allocation/growth sites with their receivers. Phase 2 (lint/wholeprogram.h)
// runs the L1/C3/A1 rules over the finished index.
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

/// One lock acquisition resolved to a node name. Multi-mutex
/// `std::scoped_lock(a, b)` sites share a `group` id: the members are
/// acquired atomically (deadlock-free by construction), so C3 draws no
/// order edges between them.
struct LockAcquisition {
  std::string node;  ///< "Owner::expr" — see ProjectIndexBuilder docs.
  std::string expr;  ///< Raw receiver expression at the site.
  int line = 0;
  int group = -1;
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
  int line = 0;           ///< Line of the body's opening brace.
  std::vector<CallSite> calls;
  std::vector<AllocSite> allocs;
  std::vector<LockAcquisition> locks;
  std::vector<LockEdge> lock_edges;
};

/// An `#include "..."` directive; `resolved` is the indexed file it names
/// (by path-suffix match) or "" for external headers.
struct IncludeRef {
  std::string raw;
  std::string resolved;
  int line = 0;
};

struct IndexedFile {
  std::string path;    ///< Repo-relative ("src/util/arena.h").
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

  const IndexedFile* FindFile(std::string_view path) const;

  /// True when `rule` is allowed (site marker) on `line` or the line above
  /// it in `file`.
  bool IsAllowed(std::string_view file, int line, std::string_view rule) const;
};

/// Module name for a repo-relative path: "src/<m>/..." -> "<m>", otherwise
/// the first path component ("tools", "bench", "examples", "tests").
std::string ModuleOf(std::string_view path);

/// Builds a ProjectIndex incrementally so tests can index in-memory
/// fixtures. AddFile lexes immediately; Build() resolves include edges and
/// the name maps. Lock nodes are named "Owner::member" where Owner is the
/// class of the enclosing method (or the file's module for free functions)
/// and member is the last component of the receiver expression, so
/// "shard.mutex" inside ShardedLru::FetchOrCompute and "shard->mutex"
/// inside ShardedLru::Clear fold to the same node.
class ProjectIndexBuilder {
 public:
  void AddFile(std::string path, std::string_view source);
  ProjectIndex Build();

 private:
  ProjectIndex index_;
};

}  // namespace qkbfly::lint

#endif  // QKBFLY_TOOLS_LINT_INDEX_H_
