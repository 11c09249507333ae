// Filesystem side of qkbfly-lint: file enumeration, reads, rendering.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/lint.h"

namespace qkbfly::lint {

namespace {

namespace fs = std::filesystem;

bool HasExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

/// Repo-relative display path: strips `root_prefix` (with trailing '/') when
/// the file lives beneath it, otherwise returns the path unchanged.
std::string DisplayPath(const fs::path& p, const std::string& root_prefix) {
  std::string s = p.generic_string();
  if (!root_prefix.empty()) {
    std::string prefix = root_prefix;
    if (prefix.back() != '/') prefix += '/';
    if (s.rfind(prefix, 0) == 0) return s.substr(prefix.size());
  }
  return s;
}

}  // namespace

std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<SourceFile> ListSourceFiles(const std::vector<std::string>& roots,
                                        const std::string& root_prefix) {
  std::vector<fs::path> paths;
  for (const std::string& root : roots) {
    fs::path rp(root);
    std::error_code ec;
    if (fs::is_regular_file(rp, ec)) {
      if (HasExtension(rp)) paths.push_back(rp);
      continue;
    }
    if (!fs::is_directory(rp, ec)) continue;
    for (fs::recursive_directory_iterator it(rp, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file(ec) && HasExtension(it->path())) {
        paths.push_back(it->path());
      }
    }
  }
  // Deterministic scan order regardless of directory enumeration order.
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths) {
    files.push_back(SourceFile{p.generic_string(), DisplayPath(p, root_prefix)});
  }
  return files;
}

std::string Render(const Diagnostic& diag) {
  return diag.file + ":" + std::to_string(diag.line) + ": " +
         RuleName(diag.rule) + ": " + diag.message;
}

}  // namespace qkbfly::lint
