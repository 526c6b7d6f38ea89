#include "lint/sarif.h"

#include <set>

#include "util/string_util.h"

namespace dwc {

namespace {

// SARIF's result levels: error / warning / note match our severities.
const char* SarifLevel(LintSeverity severity) {
  return LintSeverityName(severity);
}

}  // namespace

std::string FormatSarif(const std::vector<SarifFileResults>& files,
                        std::string_view tool_name) {
  // Rule metadata for every rule that produced at least one result.
  std::set<std::string> used;
  for (const SarifFileResults& file : files) {
    for (const Diagnostic& diagnostic : file.diagnostics) {
      used.insert(diagnostic.rule);
    }
  }
  std::string rules;
  bool first_rule = true;
  for (const LintRule& rule : LintRules()) {
    if (used.count(std::string(rule.id)) == 0) {
      continue;
    }
    if (!first_rule) {
      rules += ", ";
    }
    first_rule = false;
    rules += StrCat("{\"id\": \"", JsonEscape(rule.id),
                    "\", \"shortDescription\": {\"text\": \"",
                    JsonEscape(rule.summary), "\"}");
    if (!std::string_view(rule.paper_ref).empty()) {
      rules += StrCat(", \"help\": {\"text\": \"", JsonEscape(rule.paper_ref),
                      "\"}");
    }
    rules += "}";
  }

  std::string results;
  bool first_result = true;
  for (const SarifFileResults& file : files) {
    for (const Diagnostic& d : file.diagnostics) {
      if (!first_result) {
        results += ", ";
      }
      first_result = false;
      results += StrCat(
          "{\"ruleId\": \"", JsonEscape(d.rule), "\", \"level\": \"",
          SarifLevel(d.severity), "\", \"message\": {\"text\": \"",
          JsonEscape(d.message), "\"}");
      if (!file.file.empty()) {
        results += StrCat(
            ", \"locations\": [{\"physicalLocation\": "
            "{\"artifactLocation\": {\"uri\": \"",
            JsonEscape(file.file), "\"}");
        if (d.loc.valid()) {
          results += StrCat(", \"region\": {\"startLine\": ", d.loc.line,
                            ", \"startColumn\": ", d.loc.column, "}");
        }
        results += "}}]";
      }
      results += "}";
    }
  }

  return StrCat(
      "{\"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\", "
      "\"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": "
      "{\"name\": \"",
      JsonEscape(tool_name),
      "\", \"informationUri\": "
      "\"https://github.com/dwc/dwc\", \"rules\": [",
      rules, "]}}, \"results\": [", results, "]}]}");
}

std::string FormatDiagnosticsSarif(const std::vector<Diagnostic>& diagnostics,
                                   std::string_view file,
                                   std::string_view tool_name) {
  std::vector<SarifFileResults> files(1);
  files[0].file = std::string(file);
  files[0].diagnostics = diagnostics;
  return FormatSarif(files, tool_name);
}

}  // namespace dwc
