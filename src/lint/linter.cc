#include "lint/linter.h"

#include <cctype>
#include <string>
#include <utility>

#include "lint/passes.h"
#include "lint/spec.h"
#include "util/string_util.h"

namespace dwc {

namespace {

// Lexer/parser errors carry their position inside the message ("... at
// line 3, column 7 ..."); recover it so DWC-E001 points somewhere useful.
SourceLocation LocationFromMessage(const std::string& message) {
  SourceLocation loc;
  size_t pos = message.rfind("line ");
  if (pos == std::string::npos) {
    return loc;
  }
  size_t line = 0;
  size_t i = pos + 5;
  while (i < message.size() &&
         std::isdigit(static_cast<unsigned char>(message[i]))) {
    line = line * 10 + static_cast<size_t>(message[i] - '0');
    ++i;
  }
  if (line == 0) {
    return loc;
  }
  loc.line = line;
  loc.column = 1;
  size_t col_pos = message.find("column ", i);
  if (col_pos != std::string::npos) {
    size_t column = 0;
    for (size_t j = col_pos + 7;
         j < message.size() &&
         std::isdigit(static_cast<unsigned char>(message[j]));
         ++j) {
      column = column * 10 + static_cast<size_t>(message[j] - '0');
    }
    if (column > 0) {
      loc.column = column;
    }
  }
  return loc;
}

LintReport ReportFromSink(DiagnosticSink sink) {
  sink.Sort();
  LintReport report;
  report.errors = sink.error_count();
  report.warnings = sink.warning_count();
  report.notes = sink.note_count();
  report.diagnostics = sink.diagnostics();
  return report;
}

LintReport RunPasses(const LintInput& input, DiagnosticSink sink) {
  RunLintPasses(input, AnalyzeLintInput(input), &sink);
  return ReportFromSink(std::move(sink));
}

}  // namespace

LintReport LintScript(std::string_view source) {
  Result<ParsedProgram> program = ParseProgramWithLocations(source);
  if (!program.ok()) {
    DiagnosticSink sink;
    sink.Report("DWC-E001", LocationFromMessage(program.status().message()),
                program.status().message());
    return ReportFromSink(std::move(sink));
  }
  return LintProgram(*program);
}

LintReport LintProgram(const ParsedProgram& program) {
  DiagnosticSink sink;
  LintInput input = BuildLintInput(program, &sink);
  return RunPasses(input, std::move(sink));
}

LintReport LintWarehouseViews(std::shared_ptr<const Catalog> catalog,
                              const std::vector<ViewDef>& views) {
  return RunPasses(MakeLintInput(std::move(catalog), views),
                   DiagnosticSink());
}

Result<WarehouseSpec> SpecifyWarehouseChecked(
    std::shared_ptr<const Catalog> catalog, std::vector<ViewDef> views,
    const ComplementOptions& options, LintReport* report) {
  LintReport lint = LintWarehouseViews(catalog, views);
  if (report != nullptr) {
    *report = lint;
  }
  if (lint.has_errors()) {
    std::vector<std::string> messages;
    for (const Diagnostic& diagnostic : lint.diagnostics) {
      if (diagnostic.severity == LintSeverity::kError) {
        messages.push_back(StrCat(diagnostic.message, " [", diagnostic.rule,
                                  "]"));
      }
    }
    return Status::FailedPrecondition(
        StrCat("specification rejected by the analyzer: ",
               Join(messages, "; ")));
  }
  return SpecifyWarehouse(std::move(catalog), std::move(views), options);
}

}  // namespace dwc
