// CLI for qkbfly-lint.
//
//   qkbfly_lint [--root DIR] PATH...
//
// Reads every *.h/*.cc/*.cpp under the given paths (directories recurse)
// once, runs the per-file rules (D1/D2/C1) on each file, builds the
// ProjectIndex from the same sources and runs the whole-program rules
// (L1/C3/A1: include layering, lock order, hot-path allocation). A finding
// is silenced only by a `// qkbfly-lint: allow(<rule>)` marker at its site.
//
//   --root DIR  strip DIR/ from reported paths (repo-relative output).
//
// Exit status: 0 clean, 1 findings or a run over the 5 s self-latency
// budget, 2 on usage errors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "lint/index.h"
#include "lint/lint.h"
#include "lint/wholeprogram.h"

namespace {

/// The analysis of the whole tree must stay this fast to run on every build.
constexpr double kMaxSeconds = 5.0;

int Usage() {
  std::fprintf(stderr, "usage: qkbfly_lint [--root DIR] PATH...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qkbfly::lint;
  std::string root_prefix;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) return Usage();
      root_prefix = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "qkbfly_lint: unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else {
      roots.push_back(std::move(arg));
    }
  }
  if (roots.empty()) return Usage();

  const auto started = std::chrono::steady_clock::now();
  const std::vector<SourceFile> files = ListSourceFiles(roots, root_prefix);
  std::map<std::string, std::string> sources;  // disk path -> contents
  for (const SourceFile& file : files) {
    sources[file.path] = ReadFileToString(file.path);
  }

  // Phase 1 per file; the same sources feed the phase-2 index.
  std::vector<Diagnostic> diags;
  ProjectIndexBuilder builder;
  for (const SourceFile& file : files) {
    const std::string& source = sources[file.path];
    // A .cc sees the unordered declarations of its same-directory header so
    // D1 catches loops over members declared in the class.
    std::vector<std::string> extra;
    size_t dot = file.path.rfind('.');
    std::string ext = file.path.substr(dot);
    if (ext == ".cc" || ext == ".cpp") {
      auto header = sources.find(file.path.substr(0, dot) + ".h");
      if (header != sources.end()) {
        extra = UnorderedDeclNames(Lex(header->second));
      }
    }
    std::vector<Diagnostic> found = LintSource(file.display, source, extra);
    diags.insert(diags.end(), std::make_move_iterator(found.begin()),
                 std::make_move_iterator(found.end()));
    builder.AddFile(file.display, source);
  }

  // Phase 2: whole-program rules over the project index.
  std::vector<Diagnostic> wp = RunWholeProgram(builder.Build());
  diags.insert(diags.end(), std::make_move_iterator(wp.begin()),
               std::make_move_iterator(wp.end()));
  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  for (const Diagnostic& d : diags) {
    std::fprintf(stderr, "%s\n", Render(d).c_str());
  }

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  std::fprintf(stderr, "qkbfly_lint: %zu finding(s) in %zu file(s) [%.2fs]\n",
               diags.size(), files.size(), elapsed);
  if (elapsed > kMaxSeconds) {
    std::fprintf(stderr,
                 "qkbfly_lint: analysis took %.2fs, over the %.0f s budget\n",
                 elapsed, kMaxSeconds);
    return 1;
  }
  return diags.empty() ? 0 : 1;
}
