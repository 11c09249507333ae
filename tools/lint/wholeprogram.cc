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
  if (index.IsAllowed(file, line, rule)) return;
  out->push_back({rule, file, line, std::move(key), std::move(message)});
}

/// Documented rank of one name (lowercased substring match):
///   1 ThreadPool ("pool")   2 query-level ("qshard", "query")
///   3 memo shards ("shard")  4 store shards ("store")
///   5 metrics/observability ("metrics").
/// Rank 2 has no holder since the query tier became a memo::ShardedLru; it
/// keeps an outer query-level lock ordered. Checks run most-specific first:
/// "qshard" and "store_shard" would also match the bare memo "shard".
int RankOfName(std::string name) {
  std::transform(name.begin(), name.end(), name.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  auto contains = [&](const char* needle) {
    return name.find(needle) != std::string::npos;
  };
  if (contains("qshard") || contains("query")) return 2;
  if (contains("store")) return 4;
  if (contains("shard")) return 3;
  if (contains("metrics")) return 5;
  if (contains("pool")) return 1;
  return 0;
}

/// Documented rank of a lock node ("Owner::member"), 0 when unranked. The
/// mutex expression is classified first, then the owning class or module,
/// then the file path; the first non-zero rank wins, so a memo shard lock
/// taken inside src/store/ still ranks as a memo shard.
int DocumentedRank(const std::string& node, const std::string& expr,
                   const std::string& file) {
  for (const std::string& name :
       {expr, node.substr(0, node.rfind("::")), file}) {
    if (int rank = RankOfName(name); rank != 0) return rank;
  }
  return 0;
}

/// The class owning method `qualified`, "" for a free function.
std::string OwnerOf(const std::string& qualified) {
  size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? "" : qualified.substr(0, sep);
}

/// Follows `using` aliases to a class name ("" past an ambiguous alias).
std::string Unalias(const ProjectIndex& index, std::string type) {
  for (int hops = 0; hops < 8 && !type.empty(); ++hops) {
    auto it = index.type_aliases.find(type);
    if (it == index.type_aliases.end() || it->second == type) break;
    type = it->second;
  }
  return type;
}

/// Declared type of a call's receiver, "" when the index does not know it.
/// The chain's first identifier is looked up among the caller's parameters
/// and locals, then its class's members; each later one among the previous
/// type's members. A call without receiver is made on the caller's class.
std::string ReceiverType(const ProjectIndex& index,
                         const IndexedFunction& caller, const CallSite& call) {
  const std::string owner = OwnerOf(caller.qualified);
  if (call.receiver_opaque) return "";
  if (call.receiver.empty()) return owner;
  auto member = [&](const std::string& cls, const std::string& name) {
    auto c = index.member_types.find(cls);
    if (c == index.member_types.end()) return std::string();
    auto m = c->second.find(name);
    return m == c->second.end() ? std::string() : m->second;
  };
  std::string type;
  for (size_t i = 0; i < call.receiver.size(); ++i) {
    const std::string& name = call.receiver[i];
    if (i > 0) {
      type = member(type, name);
    } else if (name == "this") {
      type = owner;
    } else {
      auto local = caller.local_types.find(name);
      type = local != caller.local_types.end() ? local->second
                                               : member(owner, name);
    }
    type = Unalias(index, type);
    if (type.empty()) return "";
  }
  return type;
}

/// Resolves a call site to function indices. An explicit `Qualifier::name`
/// matches that qualified name; a bare name matches when every candidate
/// shares one qualified name (overload set of a single function). A name
/// several classes share resolves only for C3, which passes `trans` (each
/// function's transitive lock set): to the candidates of the receiver's
/// declared type where the index knows it (none when that type has no such
/// method, e.g. a standard container), else to every candidate that
/// transitively takes a lock. That over-approximates, so an inversion
/// through a shared name is never missed; a wrong guess shows up as a
/// finding to allow at the site, never as a missed edge. A1 passes no
/// `trans`: its ambiguous names resolve to nothing.
std::vector<size_t> ResolveCall(const ProjectIndex& index,
                                const IndexedFunction& caller,
                                const CallSite& call,
                                const std::vector<std::set<std::string>>* trans) {
  if (!call.qualifier.empty()) {
    auto it =
        index.functions_by_qualified.find(call.qualifier + "::" + call.name);
    if (it == index.functions_by_qualified.end()) return {};
    return it->second;
  }
  auto it = index.functions_by_name.find(call.name);
  if (it == index.functions_by_name.end()) return {};
  const std::string& first = index.functions[it->second.front()].qualified;
  bool shared = false;
  for (size_t idx : it->second) {
    if (index.functions[idx].qualified != first) shared = true;
  }
  if (!shared) return it->second;
  if (trans == nullptr) return {};
  std::vector<size_t> out;
  const std::string type = ReceiverType(index, caller, call);
  if (!type.empty()) {
    for (size_t idx : it->second) {
      if (OwnerOf(index.functions[idx].qualified) == type) out.push_back(idx);
    }
    // A bare call no method of the caller's class answers names a free
    // function or an inherited method: fall through to the lock takers.
    if (!out.empty() || !call.receiver.empty()) return out;
  }
  for (size_t idx : it->second) {
    if (!(*trans)[idx].empty()) out.push_back(idx);
  }
  return out;
}

/// A cycle's key: its nodes joined with " -> ", closed back on the first.
std::string CycleKey(const std::vector<std::string>& cycle) {
  std::string key;
  for (const std::string& n : cycle) key += n + " -> ";
  return key + cycle.front();
}

/// DFS cycle finder over a deterministic adjacency map. Collects one cycle
/// per back-edge, rotated so its smallest node leads (so each cycle is
/// found once, whichever node the DFS entered it from).
struct CycleFinder {
  const std::map<std::string, std::vector<std::string>>& adj;
  std::map<std::string, int> color = {};  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack = {};
  std::set<std::vector<std::string>> cycles = {};

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
          std::vector<std::string> cycle(
              std::find(stack.begin(), stack.end(), next), stack.end());
          std::rotate(cycle.begin(),
                      std::min_element(cycle.begin(), cycle.end()),
                      cycle.end());
          cycles.insert(std::move(cycle));
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

const LayerConfig& ProjectLayers() {
  // Ascending: each row is one rank (bottom first); modules on one row share
  // it and may include each other. Rendered in DESIGN.md "Static analysis &
  // invariants".
  static const LayerConfig kLayers = [] {
    const std::vector<std::vector<std::string>> rows = {
        {"util"},
        {"ilp", "ml", "obs", "text"},
        {"memo"},
        {"nlp"},
        {"kb", "parser"},
        {"clausie"},
        {"corpus", "graph"},
        {"deepdive", "retrieval", "synth"},
        {"densify"},
        {"canon"},
        {"eval", "openie"},
        {"core"},
        {"qa"},
        {"store"},
        {"service"},
    };
    LayerConfig layers;
    for (size_t r = 0; r < rows.size(); ++r) {
      for (const std::string& module : rows[r]) {
        layers.rank[module] = static_cast<int>(r);
      }
    }
    return layers;
  }();
  return kLayers;
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
               "DAG (ProjectLayers() in tools/lint/wholeprogram.cc); fix-it: "
               "add it to the layer it belongs to so its dependencies are "
               "checked",
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
               "dependency (callback/provider), or update ProjectLayers() "
               "in tools/lint/wholeprogram.cc if the DAG genuinely changed",
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
    const std::string key = CycleKey(cycle);
    const std::string& head = cycle[0];
    const std::string& next = cycle[1 % cycle.size()];
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

  // Transitive lock sets per function, propagated through resolved calls to
  // a fixpoint (the call graph is shallow; this converges in a few rounds).
  // Sets only grow, so the lock-taker fallback of ResolveCall only widens.
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
        for (size_t callee : ResolveCall(index, index.functions[i], call,
                                         &trans)) {
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
      for (size_t callee : ResolveCall(index, fn, call, &trans)) {
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
               "contradicting the documented ThreadPool -> query-level -> "
               "memo shard -> store shard -> metrics order; fix-it: release "
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
    const std::string key = CycleKey(cycle);
    // Anchor the diagnostic at the cycle's first edge.
    EdgeSite site = edges[cycle[0]][cycle[1 % cycle.size()]];
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
      if (index.IsAllowed(fn.file, call.line, Rule::kA1)) continue;
      for (size_t callee : ResolveCall(index, fn, call, nullptr)) {
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

std::vector<Diagnostic> RunWholeProgram(const ProjectIndex& index) {
  std::vector<Diagnostic> out;
  auto append = [&out](std::vector<Diagnostic> d) {
    out.insert(out.end(), std::make_move_iterator(d.begin()),
               std::make_move_iterator(d.end()));
  };
  append(CheckLayering(index, ProjectLayers()));
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
