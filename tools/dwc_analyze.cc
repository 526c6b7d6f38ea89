// dwc_analyze: semantic analyzer for warehouse specification scripts.
//
//   dwc_analyze [options] <script.dwc> [more.dwc ...]
//
// Runs the src/analysis/ verdict engines over each script and dumps:
//   * one self-maintainability certificate per (warehouse relation, base
//     relation, delta kind) triple — SELF / COMPLEMENT / SOURCE with its
//     derivation chain;
//   * the per-base invertibility proof (is W⁻¹ well-defined?), including
//     minimal missing-attribute witnesses for lossy claimed complements;
//   * complement usage (dead columns / over-complements).
// Semantic findings (DWC-S001..S006) and declaration errors are reported
// through the standard diagnostic pipeline. Exit status: 0 when no script
// has errors, 1 when any does (warnings count under --werror), 2 on usage
// or I/O failure.
//
// Options:
//   --format=text|json|sarif  Output format (default text). SARIF covers
//                       the diagnostics of every file in one 2.1.0 log;
//                       --sarif is an alias.
//   --werror            Treat warnings as errors for the exit status.
//   --no-certs          Diagnostics only; skip the certificate dump.
//   -                   Read a script from standard input.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "lint/diagnostic.h"
#include "lint/passes.h"
#include "lint/sarif.h"
#include "lint/spec.h"
#include "parser/parser.h"
#include "util/string_util.h"

namespace {

enum class Format { kText, kJson, kSarif };

struct Options {
  Format format = Format::kText;
  bool werror = false;
  bool certs = true;
  std::vector<std::string> files;
};

void PrintUsage(std::ostream& out) {
  out << "usage: dwc_analyze [--format=text|json|sarif] [--werror] "
         "[--no-certs] <script.dwc>...\n";
}

bool ReadInput(const std::string& file, std::string* out) {
  if (file == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    *out = buffer.str();
    return true;
  }
  std::ifstream in(file);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

using dwc::JsonEscape;

std::string CertificatesJson(const dwc::AnalysisResult& result) {
  std::string out = "[";
  bool first = true;
  for (const dwc::SelfMaintCertificate& cert :
       result.selfmaint.certificates) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += dwc::StrCat(
        "{\"relation\": \"", JsonEscape(cert.relation), "\", \"base\": \"",
        JsonEscape(cert.base), "\", \"delta\": \"",
        dwc::DeltaKindName(cert.kind), "\", \"verdict\": \"",
        dwc::MaintVerdictName(cert.verdict), "\", \"reads\": [");
    for (size_t i = 0; i < cert.reads.size(); ++i) {
      out += dwc::StrCat(i > 0 ? ", " : "", "\"", JsonEscape(cert.reads[i]),
                         "\"");
    }
    out += "], \"derivation\": [";
    for (size_t i = 0; i < cert.derivation.size(); ++i) {
      out += dwc::StrCat(i > 0 ? ", " : "", "\"",
                         JsonEscape(cert.derivation[i]), "\"");
    }
    out += "]}";
  }
  return out + "]";
}

std::string InvertibilityJson(const dwc::AnalysisResult& result) {
  std::string out = "[";
  bool first = true;
  for (const dwc::BaseInvertibility& entry :
       result.invertibility.per_base) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += dwc::StrCat("{\"base\": \"", JsonEscape(entry.base),
                       "\", \"verdict\": \"",
                       dwc::InvertVerdictName(entry.verdict),
                       "\", \"findings\": [");
    for (size_t i = 0; i < entry.findings.size(); ++i) {
      const dwc::InvertFinding& finding = entry.findings[i];
      out += dwc::StrCat(
          i > 0 ? ", " : "", "{\"kind\": \"",
          dwc::InvertFindingKindName(finding.kind), "\", \"witness\": [");
      bool first_attr = true;
      for (const std::string& attr : finding.missing) {
        out += dwc::StrCat(first_attr ? "" : ", ", "\"", JsonEscape(attr),
                           "\"");
        first_attr = false;
      }
      out += "]}";
    }
    out += "]}";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--format=text") {
      options.format = Format::kText;
    } else if (arg == "--format=json") {
      options.format = Format::kJson;
    } else if (arg == "--format=sarif" || arg == "--sarif") {
      options.format = Format::kSarif;
    } else if (arg == "--werror") {
      options.werror = true;
    } else if (arg == "--no-certs") {
      options.certs = false;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-' && arg != "-") {
      std::cerr << "dwc_analyze: unknown option '" << arg << "'\n";
      PrintUsage(std::cerr);
      return 2;
    } else {
      options.files.push_back(arg);
    }
  }
  if (options.files.empty()) {
    PrintUsage(std::cerr);
    return 2;
  }

  bool failed = false;
  std::string json_out = "[";
  std::vector<dwc::SarifFileResults> sarif_files;
  for (size_t i = 0; i < options.files.size(); ++i) {
    const std::string& file = options.files[i];
    std::string source;
    if (!ReadInput(file, &source)) {
      std::cerr << "dwc_analyze: cannot read '" << file << "'\n";
      return 2;
    }
    std::string label = file == "-" ? "<stdin>" : file;

    dwc::DiagnosticSink sink;
    dwc::LintAnalysis analysis;
    dwc::Result<dwc::ParsedProgram> program =
        dwc::ParseProgramWithLocations(source);
    if (!program.ok()) {
      sink.Report("DWC-E001", dwc::SourceLocation{},
                  std::string(program.status().message()));
    } else {
      dwc::LintInput input = dwc::BuildLintInput(*program, &sink);
      analysis = dwc::AnalyzeLintInput(input);
      dwc::ReportSemanticFindings(input, analysis, &sink);
    }
    const dwc::AnalysisResult& result = analysis.semantic;
    sink.Sort();

    switch (options.format) {
      case Format::kText: {
        std::cout << dwc::FormatDiagnosticsText(sink.diagnostics(), label);
        if (options.certs) {
          std::cout << "== self-maintainability certificates (" << label
                    << ") ==\n";
          if (!result.spec_error.empty()) {
            std::cout << "  (unavailable: " << result.spec_error << ")\n";
          }
          for (const dwc::SelfMaintCertificate& cert :
               result.selfmaint.certificates) {
            std::cout << cert.ToString() << "\n";
          }
          std::cout << "== invertibility (" << label << ") ==\n"
                    << result.invertibility.ToString();
          std::string usage = result.usage.ToString();
          if (!usage.empty()) {
            std::cout << "== complement usage (" << label << ") ==\n"
                      << usage;
          }
        }
        break;
      }
      case Format::kJson: {
        if (i > 0) {
          json_out += ", ";
        }
        json_out += dwc::StrCat(
            "{\"file\": \"", JsonEscape(label), "\", \"diagnostics\": ",
            dwc::FormatDiagnosticsJson(sink.diagnostics(), label),
            ", \"certificates\": ", CertificatesJson(result),
            ", \"invertibility\": ", InvertibilityJson(result), "}");
        break;
      }
      case Format::kSarif:
        sarif_files.push_back(
            dwc::SarifFileResults{label, sink.diagnostics()});
        break;
    }
    failed = failed || sink.has_errors() ||
             (options.werror && sink.warning_count() > 0);
  }
  if (options.format == Format::kJson) {
    std::cout << json_out << "]\n";
  } else if (options.format == Format::kSarif) {
    std::cout << dwc::FormatSarif(sarif_files, "dwc_analyze") << "\n";
  }
  return failed ? 1 : 0;
}
