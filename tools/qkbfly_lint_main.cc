// CLI for qkbfly-lint.
//
//   qkbfly_lint [--root DIR] [--layers FILE] [--sarif FILE]
//               [--max-seconds N] PATH...
//
// Reads every *.h/*.cc/*.cpp under the given paths (directories recurse)
// once, runs the per-file rules (D1/D2/C1/C2/H1/O1) on each file, builds the
// ProjectIndex from the same sources and runs the whole-program rules
// (L1/C3/A1: include layering, lock order, hot-path allocation). A finding
// is silenced only by a `// qkbfly-lint: allow(<rule>)` marker at its site.
//
//   --root DIR       strip DIR/ from reported paths (repo-relative output).
//   --layers FILE    module layer DAG for L1 (default: <root>/tools/
//                    lint_layers.txt).
//   --sarif FILE     write all findings as SARIF 2.1.0; the document is
//                    self-validated before writing.
//   --max-seconds N  fail if the full analysis exceeds N seconds (lint
//                    self-latency guard for CI).
//
// Exit status: 0 clean, 1 findings (or budget exceeded), 2 on usage/internal
// errors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "lint/index.h"
#include "lint/lint.h"
#include "lint/sarif.h"
#include "lint/wholeprogram.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: qkbfly_lint [--root DIR] [--layers FILE] "
               "[--sarif FILE]\n"
               "                   [--max-seconds N] PATH...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qkbfly::lint;
  std::string root_prefix;
  std::string layers_path;
  std::string sarif_path;
  long max_seconds = 0;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    if (arg == "--root") {
      if (!value(&root_prefix)) return Usage();
    } else if (arg == "--layers") {
      if (!value(&layers_path)) return Usage();
    } else if (arg == "--sarif") {
      if (!value(&sarif_path)) return Usage();
    } else if (arg == "--max-seconds") {
      std::string v;
      if (!value(&v)) return Usage();
      max_seconds = std::strtol(v.c_str(), nullptr, 10);
      if (max_seconds <= 0) return Usage();
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

  if (layers_path.empty()) {
    layers_path = root_prefix.empty() ? "tools/lint_layers.txt"
                                      : root_prefix + "/tools/lint_layers.txt";
  }
  std::string layers_text = ReadFileToString(layers_path);
  if (layers_text.empty()) {
    std::fprintf(stderr, "qkbfly_lint: cannot read layer config '%s'\n",
                 layers_path.c_str());
    return 2;
  }
  LayerConfig layers;
  std::string layer_error;
  if (!ParseLayerConfig(layers_text, &layers, &layer_error)) {
    std::fprintf(stderr, "qkbfly_lint: bad layer config '%s': %s\n",
                 layers_path.c_str(), layer_error.c_str());
    return 2;
  }

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
  std::vector<Diagnostic> wp = RunWholeProgram(builder.Build(), layers);
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

  if (!sarif_path.empty()) {
    std::string sarif = SarifReport(diags);
    std::string sarif_error;
    if (!ValidateSarif(sarif, &sarif_error)) {
      std::fprintf(stderr,
                   "qkbfly_lint: internal error: emitted SARIF failed "
                   "self-validation: %s\n",
                   sarif_error.c_str());
      return 2;
    }
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "qkbfly_lint: cannot write SARIF to '%s'\n",
                   sarif_path.c_str());
      return 2;
    }
    out << sarif;
    std::fprintf(stderr, "qkbfly_lint: wrote SARIF (%zu result(s)) to %s\n",
                 diags.size(), sarif_path.c_str());
  }

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  std::fprintf(stderr, "qkbfly_lint: %zu finding(s) in %zu file(s) [%.2fs]\n",
               diags.size(), files.size(), elapsed);
  if (max_seconds > 0 && elapsed > static_cast<double>(max_seconds)) {
    std::fprintf(stderr,
                 "qkbfly_lint: analysis took %.2fs, over the --max-seconds %ld "
                 "budget\n",
                 elapsed, max_seconds);
    return 1;
  }
  return diags.empty() ? 0 : 1;
}
