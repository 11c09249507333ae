// Phase 2 of the whole-program analyzer: cross-file rules over a
// ProjectIndex (lint/index.h).
//
//   L1  include-graph layering. ProjectLayers() holds the module DAG as
//       ascending ranks (modules sharing a rank may include each other); a
//       src/ module may only include same- or lower-rank src/ modules.
//       Back-edges, unknown modules, and file-level include cycles are
//       findings.
//   C3  lock order, the project's one lock-order analysis. The acquired-
//       while-held graph is built from actual lock sites — intra-function
//       scope tracking plus cross-function propagation through
//       unambiguously resolved calls — and must be acyclic; edges between
//       rank-classified nodes must follow the documented ThreadPool ->
//       query-level -> memo shard -> store shard -> metrics ranks (outer
//       rank < inner rank).
//   A1  hot-path allocation. Functions reachable from the densify roots
//       must not contain operator new, make_unique/make_shared, or growth
//       calls on non-workspace receivers. An `allow(A1)` marker on a call
//       line is a reachability barrier (the static twin of the runtime
//       densify_alloc_test exclusions).
#ifndef QKBFLY_TOOLS_LINT_WHOLEPROGRAM_H_
#define QKBFLY_TOOLS_LINT_WHOLEPROGRAM_H_

#include <map>
#include <string>
#include <vector>

#include "lint/index.h"
#include "lint/lint.h"

namespace qkbfly::lint {

/// Module -> rank (0 = bottom).
struct LayerConfig {
  std::map<std::string, int> rank;
};

/// The project's module DAG, util (rank 0) up to service (rank 14).
const LayerConfig& ProjectLayers();

/// L1 back-edges and unknown src/ modules against the declared DAG.
std::vector<Diagnostic> CheckLayering(const ProjectIndex& index,
                                      const LayerConfig& layers);

/// L1 file-level include cycles (all indexed files, not just src/).
std::vector<Diagnostic> CheckIncludeCycles(const ProjectIndex& index);

/// C3 lock-order cycles and documented-rank contradictions.
std::vector<Diagnostic> CheckLockOrder(const ProjectIndex& index);

/// A1 allocation sites reachable from `roots` (qualified function names).
std::vector<Diagnostic> CheckHotPathAlloc(const ProjectIndex& index,
                                          const std::vector<std::string>& roots);

/// Default A1 roots: the densify hot path.
const std::vector<std::string>& DefaultHotPathRoots();

/// All phase-2 rules (L1 against ProjectLayers()), sorted by (file, line)
/// with allow() markers applied.
std::vector<Diagnostic> RunWholeProgram(const ProjectIndex& index);

}  // namespace qkbfly::lint

#endif  // QKBFLY_TOOLS_LINT_WHOLEPROGRAM_H_
