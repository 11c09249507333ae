#include "lint/sarif.h"

#include "util/json.h"

namespace qkbfly::lint {

namespace {

struct RuleDoc {
  const char* id;
  const char* text;
};

constexpr RuleDoc kRuleDocs[] = {
    {"D1", "unordered container iteration order leaks into output"},
    {"D2", "wall-clock time on a deterministic path"},
    {"C1", "mutable global state outside the allowed shapes"},
    {"C2", "per-file lock acquisition order violates documented ranks"},
    {"H1", "header hygiene (guard, namespace, include style)"},
    {"O1", "metric/span name is not a snake_case string literal"},
    {"L1", "include-graph layering back-edge or include cycle"},
    {"C3", "inferred whole-program lock order is cyclic or contradicts "
           "documented ranks"},
    {"A1", "allocation on the densify hot path"},
};

bool CheckResult(json::Value result, size_t i, std::string* error) {
  auto fail = [&](const std::string& what) {
    *error = "results[" + std::to_string(i) + "]: " + what;
    return false;
  };
  if (!result.is_object()) return fail("not an object");
  json::Value rule_id = result.Find("ruleId");
  if (!rule_id.is_string()) return fail("missing string ruleId");
  bool known = false;
  for (const RuleDoc& doc : kRuleDocs) {
    if (rule_id.text() == doc.id) known = true;
  }
  if (!known) return fail("unknown ruleId '" + std::string(rule_id.text()) + "'");
  json::Value text = result.Find("message").Find("text");
  if (!text.is_string() || text.text().empty()) {
    return fail("missing message.text");
  }
  json::Value locations = result.Find("locations");
  if (!locations.is_array() || locations.size() == 0) {
    return fail("missing locations");
  }
  json::Value phys = locations.at(0).Find("physicalLocation");
  if (!phys) return fail("missing physicalLocation");
  json::Value uri = phys.Find("artifactLocation").Find("uri");
  if (!uri.is_string() || uri.text().empty()) {
    return fail("missing artifactLocation.uri");
  }
  double start_line = 0.0;
  if (!phys.Find("region").Find("startLine").GetDouble(&start_line) ||
      start_line < 1.0) {
    return fail("region.startLine must be a number >= 1");
  }
  return true;
}

}  // namespace

std::string SarifReport(const std::vector<Diagnostic>& diags) {
  std::string out;
  out += "{\n";
  out += "  \"version\": \"2.1.0\",\n";
  out +=
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"runs\": [\n    {\n";
  out += "      \"tool\": {\n        \"driver\": {\n";
  out += "          \"name\": \"qkbfly-lint\",\n";
  out += "          \"rules\": [\n";
  for (size_t i = 0; i < sizeof(kRuleDocs) / sizeof(kRuleDocs[0]); ++i) {
    out += "            {\"id\": \"";
    out += kRuleDocs[i].id;
    out += "\", \"shortDescription\": {\"text\": ";
    json::AppendJsonString(kRuleDocs[i].text, &out);
    out += "}}";
    out += (i + 1 < sizeof(kRuleDocs) / sizeof(kRuleDocs[0])) ? ",\n" : "\n";
  }
  out += "          ]\n        }\n      },\n";
  out += "      \"results\": [\n";
  for (size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out += "        {\n          \"ruleId\": \"";
    out += RuleName(d.rule);
    out += "\",\n          \"level\": \"error\",\n";
    out += "          \"message\": {\"text\": ";
    json::AppendJsonString(d.message, &out);
    out += "},\n          \"locations\": [\n";
    out += "            {\"physicalLocation\": {\n";
    out += "              \"artifactLocation\": {\"uri\": ";
    json::AppendJsonString(d.file, &out);
    out += "},\n              \"region\": {\"startLine\": ";
    out += std::to_string(d.line > 0 ? d.line : 1);
    out += "}\n            }}\n          ]\n        }";
    out += (i + 1 < diags.size()) ? ",\n" : "\n";
  }
  out += "      ]\n    }\n  ]\n}\n";
  return out;
}

bool ValidateSarif(std::string_view text, std::string* error) {
  std::string local;
  std::string* err = error != nullptr ? error : &local;
  json::Document doc;
  if (!doc.Parse(text, err)) {
    *err = "json: " + *err;
    return false;
  }
  json::Value root = doc.root();
  if (!root.is_object()) {
    *err = "root is not an object";
    return false;
  }
  json::Value version = root.Find("version");
  if (!version.is_string() || version.text() != "2.1.0") {
    *err = "version must be \"2.1.0\"";
    return false;
  }
  json::Value runs = root.Find("runs");
  if (!runs.is_array() || runs.size() == 0) {
    *err = "runs must be a non-empty array";
    return false;
  }
  json::Value run = runs.at(0);
  json::Value name = run.Find("tool").Find("driver").Find("name");
  if (!name.is_string() || name.text().empty()) {
    *err = "tool.driver.name must be a non-empty string";
    return false;
  }
  json::Value results = run.Find("results");
  if (!results.is_array()) {
    *err = "results must be an array";
    return false;
  }
  for (size_t i = 0; i < results.size(); ++i) {
    if (!CheckResult(results.at(i), i, err)) return false;
  }
  return true;
}

}  // namespace qkbfly::lint
