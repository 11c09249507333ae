// SARIF 2.1.0 export for lint diagnostics, plus its validator.
//
// The report is the minimal static-analysis profile most viewers (GitHub
// code scanning, VS Code SARIF viewer) accept:
//
//   { "version": "2.1.0",
//     "runs": [ { "tool": { "driver": { "name", "rules": [...] } },
//                 "results": [ { "ruleId", "level", "message": {"text"},
//                               "locations": [ { "physicalLocation": {
//                                 "artifactLocation": {"uri"},
//                                 "region": {"startLine"} } } ] } ] } ] }
//
// ValidateSarif re-parses the emitted text with the project's JSON reader
// (src/util/json) and checks that contract, so the exporter cannot silently
// drift: the driver validates every --sarif file before writing it and the
// ctest suite validates fixtures.
#ifndef QKBFLY_TOOLS_LINT_SARIF_H_
#define QKBFLY_TOOLS_LINT_SARIF_H_

#include <string>
#include <string_view>
#include <vector>

#include "lint/lint.h"

namespace qkbfly::lint {

/// Renders diagnostics as a SARIF 2.1.0 document; artifact URIs are the
/// repo-relative diagnostic paths.
std::string SarifReport(const std::vector<Diagnostic>& diags);

/// True when `text` parses as JSON and satisfies the SARIF contract above
/// (version 2.1.0, non-empty runs, named driver, every result carrying a
/// known ruleId, a message.text string, and a location with uri and
/// startLine >= 1). On failure fills `error` with the first violation.
bool ValidateSarif(std::string_view text, std::string* error);

}  // namespace qkbfly::lint

#endif  // QKBFLY_TOOLS_LINT_SARIF_H_
