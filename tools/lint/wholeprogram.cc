#include "lint/wholeprogram.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace qkbfly::lint {

namespace {

/// Where an edge (include or lock-order) was first observed.
struct EdgeSite {
  std::string file;
  int line = 0;
};

void Report(const ProjectIndex& index, Rule rule, const std::string& file,
            int line, std::string key, std::string message,
            std::vector<Diagnostic>* out) {
  if (index.IsAllowed(file, line, RuleName(rule))) return;
  Diagnostic d;
  d.rule = rule;
  d.file = file;
  d.line = line;
  d.key = std::move(key);
  d.message = std::move(message);
  out->push_back(std::move(d));
}

/// Mirrors the documented C2 ranks (see lint/rules.cc LockRank), applied to
/// "node@expr@file" lowercased so class names and paths participate:
///   1 ThreadPool  2 query-level  3 memo shards  4 store shards
///   5 metrics/observability.
int DocumentedRank(const std::string& node, const std::string& expr,
                   const std::string& file) {
  std::string hay = node + "@" + expr + "@" + file;
  std::transform(hay.begin(), hay.end(), hay.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  auto contains = [&](const char* needle) {
    return hay.find(needle) != std::string::npos;
  };
  if (contains("qshard") || contains("query")) return 2;
  if (contains("store")) return 4;
  if (contains("shard")) return 3;
  if (contains("metrics")) return 5;
  if (contains("pool")) return 1;
  return 0;
}

/// Resolves a call site to function indices. Deliberately strict: an
/// explicit `Qualifier::name` matches that qualified name; a bare name
/// matches only when every candidate shares one qualified name (overload
/// set of a single function). Ambiguous names resolve to nothing — token
/// matching cannot tell receivers apart, and a wrong match would fabricate
/// cross-function lock/alloc facts.
std::vector<size_t> ResolveCall(const ProjectIndex& index,
                                const CallSite& call) {
  if (!call.qualifier.empty()) {
    auto it =
        index.functions_by_qualified.find(call.qualifier + "::" + call.name);
    if (it == index.functions_by_qualified.end()) return {};
    return it->second;
  }
  auto it = index.functions_by_name.find(call.name);
  if (it == index.functions_by_name.end()) return {};
  const std::string& first = index.functions[it->second.front()].qualified;
  for (size_t idx : it->second) {
    if (index.functions[idx].qualified != first) return {};
  }
  return it->second;
}

/// Canonical cycle key: rotated so the smallest node leads, joined with
/// " -> " and closed back on the first node.
std::string CanonicalCycleKey(std::vector<std::string> cycle) {
  if (cycle.empty()) return "";
  size_t best = 0;
  for (size_t i = 1; i < cycle.size(); ++i) {
    if (cycle[i] < cycle[best]) best = i;
  }
  std::rotate(cycle.begin(), cycle.begin() + static_cast<long>(best),
              cycle.end());
  std::string key;
  for (const std::string& n : cycle) {
    key += n;
    key += " -> ";
  }
  key += cycle.front();
  return key;
}

/// DFS cycle finder over a deterministic adjacency map. Emits one canonical
/// cycle per back-edge, de-duplicated.
struct CycleFinder {
  const std::map<std::string, std::vector<std::string>>& adj;
  std::map<std::string, int> color = {};  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack = {};
  std::set<std::string> seen_keys = {};
  std::vector<std::vector<std::string>> cycles = {};

  void Visit(const std::string& node) {
    color[node] = 1;
    stack.push_back(node);
    auto it = adj.find(node);
    if (it != adj.end()) {
      for (const std::string& next : it->second) {
        int c = color.count(next) > 0 ? color[next] : 0;
        if (c == 0) {
          Visit(next);
        } else if (c == 1) {
          // Back edge: the cycle is the stack suffix from `next`.
          auto at = std::find(stack.begin(), stack.end(), next);
          std::vector<std::string> cycle(at, stack.end());
          std::string key = CanonicalCycleKey(cycle);
          if (seen_keys.insert(key).second) cycles.push_back(cycle);
        }
      }
    }
    stack.pop_back();
    color[node] = 2;
  }

  void Run() {
    for (const auto& [node, unused] : adj) {
      if (color.count(node) == 0 || color[node] == 0) Visit(node);
    }
  }
};

}  // namespace

bool ParseLayerConfig(std::string_view text, LayerConfig* out,
                      std::string* error) {
  out->rank.clear();
  int rank = 0;
  size_t pos = 0;
  int lineno = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    // Trim and drop comments.
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r' ||
                             line.back() == '\t')) {
      line.remove_suffix(1);
    }
    if (line.empty()) {
      if (eol == text.size()) break;
      continue;
    }
    if (line.rfind("layer", 0) != 0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) +
                 ": expected `layer <module>...`";
      }
      return false;
    }
    line.remove_prefix(5);
    bool any = false;
    std::string module;
    auto flush = [&] {
      if (module.empty()) return true;
      if (out->rank.count(module) > 0) {
        if (error != nullptr) {
          *error = "line " + std::to_string(lineno) + ": module '" + module +
                   "' listed twice";
        }
        return false;
      }
      out->rank[module] = rank;
      module.clear();
      any = true;
      return true;
    };
    for (char c : line) {
      if (c == ' ' || c == '\t') {
        if (!flush()) return false;
      } else {
        module += c;
      }
    }
    if (!flush()) return false;
    if (!any) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": empty layer line";
      }
      return false;
    }
    ++rank;
    if (eol == text.size()) break;
  }
  if (out->rank.empty()) {
    if (error != nullptr) *error = "no layers declared";
    return false;
  }
  return true;
}

std::vector<Diagnostic> CheckLayering(const ProjectIndex& index,
                                      const LayerConfig& layers) {
  std::vector<Diagnostic> out;
  std::set<std::string> unknown_reported;
  for (const IndexedFile& file : index.files) {
    bool from_src = file.path.rfind("src/", 0) == 0;
    if (!from_src) continue;  // tools/bench/examples may include anything
    auto from_it = layers.rank.find(file.module);
    if (from_it == layers.rank.end()) {
      if (unknown_reported.insert(file.module).second) {
        Report(index, Rule::kL1, file.path, 1, "module-" + file.module,
               "module '" + file.module + "' is not declared in the layer "
               "config (tools/lint_layers.txt); fix-it: add it to the layer "
               "it belongs to so its dependencies are checked",
               &out);
      }
      continue;
    }
    for (const IncludeRef& ref : file.includes) {
      if (ref.resolved.empty()) continue;
      if (ref.resolved.rfind("src/", 0) != 0) continue;
      std::string to_module = ModuleOf(ref.resolved);
      if (to_module == file.module) continue;
      auto to_it = layers.rank.find(to_module);
      if (to_it == layers.rank.end()) continue;  // reported once above
      if (from_it->second < to_it->second) {
        Report(index, Rule::kL1, file.path, ref.line,
               file.module + "->" + to_module,
               "include of '" + ref.raw + "' is a layering back-edge: "
               "module '" + file.module + "' (layer " +
               std::to_string(from_it->second) + ") must not depend on '" +
               to_module + "' (layer " + std::to_string(to_it->second) +
               "); fix-it: move the shared piece down a layer, invert the "
               "dependency (callback/provider), or update "
               "tools/lint_layers.txt if the DAG genuinely changed",
               &out);
      }
    }
  }
  return out;
}

std::vector<Diagnostic> CheckIncludeCycles(const ProjectIndex& index) {
  std::vector<Diagnostic> out;
  std::map<std::string, std::vector<std::string>> adj;
  std::map<std::string, std::map<std::string, int>> edge_line;
  for (const IndexedFile& file : index.files) {
    for (const IncludeRef& ref : file.includes) {
      if (ref.resolved.empty() || ref.resolved == file.path) continue;
      adj[file.path].push_back(ref.resolved);
      edge_line[file.path].emplace(ref.resolved, ref.line);
    }
  }
  CycleFinder finder{adj};
  finder.Run();
  for (const std::vector<std::string>& cycle : finder.cycles) {
    std::vector<std::string> canon = cycle;
    std::string key = CanonicalCycleKey(canon);
    size_t best = 0;
    for (size_t i = 1; i < canon.size(); ++i) {
      if (canon[i] < canon[best]) best = i;
    }
    const std::string& head = canon[best];
    const std::string& next = canon[(best + 1) % canon.size()];
    int line = edge_line[head].count(next) > 0 ? edge_line[head][next] : 1;
    Report(index, Rule::kL1, head, line, key,
           "include cycle: " + key + "; fix-it: break the cycle with a "
           "forward declaration or by splitting the shared types into a "
           "lower-layer header",
           &out);
  }
  return out;
}

std::vector<Diagnostic> CheckLockOrder(const ProjectIndex& index) {
  std::vector<Diagnostic> out;

  // Node facts: documented rank (first classified site wins) and a sample
  // site for messages.
  std::map<std::string, int> rank_of;
  for (const IndexedFunction& fn : index.functions) {
    for (const LockAcquisition& acq : fn.locks) {
      int r = DocumentedRank(acq.node, acq.expr, fn.file);
      if (r != 0 && rank_of.count(acq.node) == 0) rank_of[acq.node] = r;
    }
  }

  // Transitive lock sets per function, propagated through unambiguous calls
  // to a fixpoint (the call graph is shallow; this converges in a few
  // rounds).
  std::vector<std::set<std::string>> trans(index.functions.size());
  for (size_t i = 0; i < index.functions.size(); ++i) {
    for (const LockAcquisition& acq : index.functions[i].locks) {
      trans[i].insert(acq.node);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < index.functions.size(); ++i) {
      for (const CallSite& call : index.functions[i].calls) {
        for (size_t callee : ResolveCall(index, call)) {
          if (callee == i) continue;
          for (const std::string& node : trans[callee]) {
            if (trans[i].insert(node).second) changed = true;
          }
        }
      }
    }
  }

  // Acquired-while-held edges: intra-function pairs plus calls made under a
  // lock into functions that (transitively) acquire more locks.
  std::map<std::string, std::map<std::string, EdgeSite>> edges;
  auto add_edge = [&](const std::string& outer, const std::string& inner,
                      const std::string& file, int line) {
    if (outer == inner) return;
    edges[outer].emplace(inner, EdgeSite{file, line});
  };
  for (const IndexedFunction& fn : index.functions) {
    for (const LockEdge& e : fn.lock_edges) {
      add_edge(e.outer, e.inner, fn.file, e.line);
    }
    for (const CallSite& call : fn.calls) {
      if (call.held.empty()) continue;
      for (size_t callee : ResolveCall(index, call)) {
        for (const std::string& inner : trans[callee]) {
          for (const std::string& outer : call.held) {
            add_edge(outer, inner, fn.file, call.line);
          }
        }
      }
    }
  }

  // Rank contradictions: the inferred order must agree with the documented
  // partial order wherever both endpoints are classified.
  for (const auto& [outer, inners] : edges) {
    auto ro = rank_of.find(outer);
    if (ro == rank_of.end()) continue;
    for (const auto& [inner, site] : inners) {
      auto ri = rank_of.find(inner);
      if (ri == rank_of.end()) continue;
      if (ro->second > ri->second) {
        Report(index, Rule::kC3, site.file, site.line, outer + "->" + inner,
               "inferred lock order acquires '" + inner + "' (documented "
               "rank " + std::to_string(ri->second) + ") while holding '" +
               outer + "' (rank " + std::to_string(ro->second) + "), "
               "contradicting the documented ThreadPool -> query-tier -> "
               "doc-tier -> store-shard -> metrics order; fix-it: release "
               "the outer lock first, restructure the call, or fix the "
               "documented ranks if the design changed",
               &out);
      }
    }
  }

  // Cycles in the inferred graph are potential deadlocks even when every
  // node is unranked.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [outer, inners] : edges) {
    for (const auto& [inner, site] : inners) adj[outer].push_back(inner);
  }
  CycleFinder finder{adj};
  finder.Run();
  for (const std::vector<std::string>& cycle : finder.cycles) {
    std::string key = CanonicalCycleKey(cycle);
    // Anchor the diagnostic at the first edge of the canonical rotation.
    std::vector<std::string> canon = cycle;
    size_t best = 0;
    for (size_t i = 1; i < canon.size(); ++i) {
      if (canon[i] < canon[best]) best = i;
    }
    const std::string& head = canon[best];
    const std::string& next = canon[(best + 1) % canon.size()];
    EdgeSite site = edges[head][next];
    Report(index, Rule::kC3, site.file, site.line, key,
           "inferred lock-order cycle (potential deadlock): " + key +
               "; fix-it: impose a single acquisition order across these "
               "mutexes or collapse them behind one lock",
           &out);
  }
  return out;
}

const std::vector<std::string>& DefaultHotPathRoots() {
  static const std::vector<std::string> kRoots = {"GreedyDensifier::Densify"};
  return kRoots;
}

std::vector<Diagnostic> CheckHotPathAlloc(
    const ProjectIndex& index, const std::vector<std::string>& roots) {
  std::vector<Diagnostic> out;
  // BFS over the call graph from the root functions. An allow(A1) marker on
  // a call line is a reachability barrier: the callee runs off the hot path
  // (debug-only invariant hooks, reference scan loops) by documented intent.
  std::vector<char> reached(index.functions.size(), 0);
  std::vector<size_t> queue;
  for (const std::string& root : roots) {
    auto it = index.functions_by_qualified.find(root);
    if (it == index.functions_by_qualified.end()) continue;
    for (size_t idx : it->second) {
      if (reached[idx] == 0) {
        reached[idx] = 1;
        queue.push_back(idx);
      }
    }
  }
  for (size_t at = 0; at < queue.size(); ++at) {
    const IndexedFunction& fn = index.functions[queue[at]];
    for (const CallSite& call : fn.calls) {
      if (index.IsAllowed(fn.file, call.line, "A1")) continue;
      for (size_t callee : ResolveCall(index, call)) {
        if (reached[callee] == 0) {
          reached[callee] = 1;
          queue.push_back(callee);
        }
      }
    }
  }
  for (size_t idx : queue) {
    const IndexedFunction& fn = index.functions[idx];
    for (const AllocSite& site : fn.allocs) {
      if (site.exempt) continue;
      std::string what =
          site.receiver.empty() ? site.what : site.receiver + site.what;
      Report(index, Rule::kA1, fn.file, site.line,
             fn.qualified + "/" + site.what,
             "'" + what + "' in '" + fn.qualified + "', which is reachable "
             "from the densify hot path — the zero-allocation contract "
             "(densify_alloc_test) forbids heap traffic here; fix-it: use "
             "the DensifyWorkspace (retained capacity), hoist the "
             "allocation out of the hot path, or justify with "
             "// qkbfly-lint: allow(A1) (on a call line it also stops "
             "reachability)",
             &out);
    }
  }
  return out;
}

std::vector<Diagnostic> RunWholeProgram(const ProjectIndex& index,
                                        const LayerConfig& layers) {
  std::vector<Diagnostic> out;
  auto append = [&out](std::vector<Diagnostic> d) {
    out.insert(out.end(), std::make_move_iterator(d.begin()),
               std::make_move_iterator(d.end()));
  };
  append(CheckLayering(index, layers));
  append(CheckIncludeCycles(index));
  append(CheckLockOrder(index));
  append(CheckHotPathAlloc(index, DefaultHotPathRoots()));
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.key < b.key;
                   });
  return out;
}

}  // namespace qkbfly::lint
