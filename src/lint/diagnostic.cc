#include "lint/diagnostic.h"

#include <algorithm>
#include <cassert>

#include "util/string_util.h"

namespace dwc {

const char* LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kError:
      return "error";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kNote:
      return "note";
  }
  return "error";
}

bool Diagnostic::operator<(const Diagnostic& other) const {
  // Unknown locations (line 0) sort after known ones.
  bool known = loc.valid();
  bool other_known = other.loc.valid();
  if (known != other_known) {
    return known;
  }
  if (!(loc == other.loc)) {
    return loc < other.loc;
  }
  if (severity != other.severity) {
    return severity < other.severity;
  }
  return rule < other.rule;
}

const std::vector<LintRule>& LintRules() {
  static const std::vector<LintRule> kRules = {
      {"DWC-E001", LintSeverity::kError, "script does not parse", ""},
      {"DWC-E002", LintSeverity::kError,
       "reference to an undeclared relation", ""},
      {"DWC-E003", LintSeverity::kError,
       "reference to an attribute absent from the input schema", ""},
      {"DWC-E004", LintSeverity::kError,
       "view expression outside the PSJ normal form",
       "Section 2, PSJ views pi_Z(sigma_P(Ri1 |x| ... |x| Rik))"},
      {"DWC-E005", LintSeverity::kError,
       "base relation joined more than once (self-join)",
       "Section 2, the construction excludes self-joins"},
      {"DWC-E006", LintSeverity::kError,
       "cyclic inclusion dependencies",
       "Theorem 2.2, acyclicity precondition"},
      {"DWC-E007", LintSeverity::kError,
       "malformed inclusion dependency (arity, unknown name, or type "
       "mismatch)",
       "Section 2, Definition of IND"},
      {"DWC-E008", LintSeverity::kError,
       "duplicate declaration (relation, view, or second key)",
       "Section 2, at most one key per relation"},
      {"DWC-W001", LintSeverity::kWarning,
       "selection predicate is unsatisfiable; the view is always empty", ""},
      {"DWC-W002", LintSeverity::kWarning,
       "selection predicate is a tautology; the selection is redundant", ""},
      {"DWC-W003", LintSeverity::kWarning,
       "no warehouse view contains the relation's key; cover enumeration "
       "finds nothing and the complement stores the full relation",
       "Theorem 2.2, key-containing covers; Prop. 2.2 fallback"},
      {"DWC-W004", LintSeverity::kWarning,
       "base relation has no declared key; cover-based complement "
       "reduction is unavailable",
       "Theorem 2.2 requires declared keys"},
      {"DWC-W005", LintSeverity::kWarning,
       "view is subsumed by another view over the same base relations", ""},
      {"DWC-W006", LintSeverity::kWarning,
       "projection keeps every attribute of its input (no-op)", ""},
      {"DWC-W007", LintSeverity::kWarning,
       "view is defined over another view; warehouse views must be PSJ "
       "expressions over base relations",
       "Section 2, V defined over D"},
      {"DWC-S001", LintSeverity::kWarning,
       "maintenance under this delta is statically classified SOURCE; "
       "update independence is lost and integration must re-query the "
       "source",
       "Theorem 4.1, update independence"},
      {"DWC-S002", LintSeverity::kWarning,
       "base relation is not reconstructible from the warehouse; the "
       "claimed complement drops attributes (see the missing-attribute "
       "witness)",
       "Proposition 2.1, invertibility of W"},
      {"DWC-S003", LintSeverity::kWarning,
       "base relation has no verified residual store; tuples the views "
       "lose may be unrecoverable",
       "Equation (3), Ci = Ri \\ (R^i U R^i_ir)"},
      {"DWC-N001", LintSeverity::kNote,
       "inclusion dependency is not in common-attribute form; Theorem 2.2 "
       "machinery only exploits common-attribute INDs",
       "Footnote 3 / Theorem 2.2"},
      {"DWC-N002", LintSeverity::kNote,
       "relation is not referenced by any view; the complement must "
       "materialize it in full", "Prop. 2.2, Ci = Ri \\ R^i"},
      {"DWC-N003", LintSeverity::kNote,
       "view's canonicalized definition is identical to another view's; "
       "the warehouse materializes the same relation twice",
       "hash-consed expression DAG, algebra/interner.h"},
      {"DWC-N004", LintSeverity::kNote,
       "view's canonicalized definition appears as a subexpression of "
       "another view's definition; consider defining the larger view over "
       "the smaller one's bases once",
       "hash-consed expression DAG, algebra/interner.h"},
      {"DWC-S004", LintSeverity::kNote,
       "projection drops attributes of a base relation that no other view "
       "exposes; they are recoverable only through the complement",
       "Section 6, reduced complements"},
      {"DWC-S005", LintSeverity::kNote,
       "complement column is read by no view maintenance expression and no "
       "translated query; it is materialized dead weight",
       "Section 6, reduced complements"},
      {"DWC-S006", LintSeverity::kNote,
       "complement relation is read by no view maintenance expression and "
       "no translated query; the views are maintainable without it",
       "Section 4 closing remark, selection-only views"},
  };
  return kRules;
}

const LintRule* FindLintRule(std::string_view id) {
  for (const LintRule& rule : LintRules()) {
    if (rule.id == id) {
      return &rule;
    }
  }
  return nullptr;
}

void DiagnosticSink::Report(std::string_view rule, SourceLocation loc,
                            std::string message, std::string subject) {
  const LintRule* info = FindLintRule(rule);
  assert(info != nullptr && "unknown lint rule ID");
  Diagnostic diagnostic;
  diagnostic.severity = info ? info->severity : LintSeverity::kError;
  diagnostic.rule = std::string(rule);
  diagnostic.loc = loc;
  diagnostic.message = std::move(message);
  diagnostic.subject = std::move(subject);
  switch (diagnostic.severity) {
    case LintSeverity::kError:
      ++errors_;
      break;
    case LintSeverity::kWarning:
      ++warnings_;
      break;
    case LintSeverity::kNote:
      ++notes_;
      break;
  }
  diagnostics_.push_back(std::move(diagnostic));
}

void DiagnosticSink::Sort() {
  std::stable_sort(diagnostics_.begin(), diagnostics_.end());
}

std::string FormatDiagnostic(const Diagnostic& diagnostic,
                             std::string_view file) {
  std::string out;
  if (!file.empty()) {
    out = StrCat(file, ":");
  }
  if (diagnostic.loc.valid()) {
    out = StrCat(out, diagnostic.loc.line, ":", diagnostic.loc.column, ":");
  }
  if (!out.empty()) {
    out += " ";
  }
  return StrCat(out, LintSeverityName(diagnostic.severity), ": ",
                diagnostic.message, " [", diagnostic.rule, "]");
}

std::string FormatDiagnosticsText(const std::vector<Diagnostic>& diagnostics,
                                  std::string_view file) {
  std::string out;
  size_t errors = 0;
  size_t warnings = 0;
  for (const Diagnostic& diagnostic : diagnostics) {
    out += FormatDiagnostic(diagnostic, file);
    out += "\n";
    errors += diagnostic.severity == LintSeverity::kError ? 1 : 0;
    warnings += diagnostic.severity == LintSeverity::kWarning ? 1 : 0;
  }
  if (!diagnostics.empty()) {
    out += StrCat(errors, " error(s), ", warnings, " warning(s), ",
                  diagnostics.size() - errors - warnings, " note(s)\n");
  }
  return out;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDiagnosticsJson(const std::vector<Diagnostic>& diagnostics,
                                  std::string_view file) {
  std::string out = StrCat("{\"file\": \"", JsonEscape(file),
                           "\", \"diagnostics\": [");
  size_t errors = 0;
  size_t warnings = 0;
  size_t notes = 0;
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) {
      out += ", ";
    }
    out += StrCat("{\"rule\": \"", JsonEscape(d.rule), "\", \"severity\": \"",
                  LintSeverityName(d.severity), "\", \"line\": ", d.loc.line,
                  ", \"column\": ", d.loc.column, ", \"message\": \"",
                  JsonEscape(d.message), "\", \"subject\": \"",
                  JsonEscape(d.subject), "\"}");
    switch (d.severity) {
      case LintSeverity::kError:
        ++errors;
        break;
      case LintSeverity::kWarning:
        ++warnings;
        break;
      case LintSeverity::kNote:
        ++notes;
        break;
    }
  }
  out += StrCat("], \"errors\": ", errors, ", \"warnings\": ", warnings,
                ", \"notes\": ", notes, "}");
  return out;
}

}  // namespace dwc
