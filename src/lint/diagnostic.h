#ifndef DWC_LINT_DIAGNOSTIC_H_
#define DWC_LINT_DIAGNOSTIC_H_

#include <string>
#include <string_view>
#include <vector>

#include "parser/token.h"

namespace dwc {

// How bad a finding is. Errors make a specification unusable for the
// paper's machinery; warnings flag degraded behavior (e.g. full-`Ri`
// complements); notes are informational.
enum class LintSeverity {
  kError = 0,
  kWarning,
  kNote,
};

// "error", "warning", "note".
const char* LintSeverityName(LintSeverity severity);

// One finding of the static analyzer, addressable by a stable rule ID.
struct Diagnostic {
  LintSeverity severity = LintSeverity::kError;
  // Stable ID, e.g. "DWC-E002". The catalog of IDs lives in LintRules().
  std::string rule;
  // Invalid (line 0) when no source position is known.
  SourceLocation loc;
  std::string message;
  // The view / relation the finding is about, when there is one.
  std::string subject;

  bool operator<(const Diagnostic& other) const;
};

// Catalog entry describing one rule: its default severity, a one-line
// summary, and the paper precondition it enforces (empty when the rule is
// an engineering check rather than a paper one).
struct LintRule {
  const char* id;
  LintSeverity severity;
  const char* summary;
  const char* paper_ref;
};

// All known rules, grouped by severity (errors, then warnings, then
// notes) and numbered within each group.
const std::vector<LintRule>& LintRules();
// nullptr for unknown IDs.
const LintRule* FindLintRule(std::string_view id);

// Collects diagnostics across passes. Never aborts: passes report
// everything they find and the caller decides what to do with errors.
class DiagnosticSink {
 public:
  // Reports under `rule` with the catalog's default severity. The rule ID
  // must exist in LintRules() (asserted in debug builds; unknown IDs fall
  // back to kError).
  void Report(std::string_view rule, SourceLocation loc, std::string message,
              std::string subject = "");

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool has_errors() const { return errors_ > 0; }
  size_t error_count() const { return errors_; }
  size_t warning_count() const { return warnings_; }
  size_t note_count() const { return notes_; }

  // Stable-sorts findings by source position (unknown positions last),
  // then severity, then rule ID.
  void Sort();

 private:
  std::vector<Diagnostic> diagnostics_;
  size_t errors_ = 0;
  size_t warnings_ = 0;
  size_t notes_ = 0;
};

// "file:line:col: severity: message [RULE]" (clang style). `file` may be
// empty; unknown locations drop the line:col part.
std::string FormatDiagnostic(const Diagnostic& diagnostic,
                             std::string_view file);

// One line per diagnostic plus a trailing "N error(s), M warning(s)"
// summary line (omitted when there are no findings).
std::string FormatDiagnosticsText(const std::vector<Diagnostic>& diagnostics,
                                  std::string_view file);

// `text` as the body of a JSON string literal: quotes, backslashes and
// control characters escaped.
std::string JsonEscape(std::string_view text);

// A JSON object {"file": ..., "diagnostics": [...], "errors": N,
// "warnings": N, "notes": N}. Unknown locations serialize as line 0.
std::string FormatDiagnosticsJson(const std::vector<Diagnostic>& diagnostics,
                                  std::string_view file);

}  // namespace dwc

#endif  // DWC_LINT_DIAGNOSTIC_H_
