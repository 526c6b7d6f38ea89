#ifndef DWC_LINT_PASSES_H_
#define DWC_LINT_PASSES_H_

#include <vector>

#include "analysis/analyzer.h"
#include "core/psj.h"
#include "lint/diagnostic.h"
#include "lint/spec.h"

namespace dwc {

// What the passes read besides the input itself: the PSJ walk of each view
// (parallel to LintInput::views) and the semantic analysis of the script.
struct LintAnalysis {
  std::vector<PsjWalk> walks;
  AnalysisResult semantic;
};

// Walks every view and runs AnalyzeWarehouse, once each.
LintAnalysis AnalyzeLintInput(const LintInput& input);

// Runs every pass in this order. Each reports all it sees and never aborts,
// so one run surfaces every problem at once (unlike AnalyzeAllPsj, which
// stops at the first offender). DiagnosticSink::Sort is stable, so this
// order breaks the ties it leaves.
//   shape                DWC-E002/E003/E004/E005, DWC-W006/W007
//   ind-cycles           DWC-E006
//   predicates           DWC-W001/W002
//   key-coverage         DWC-W003/W004, DWC-N002
//   redundant-views      DWC-W005
//   canonical-duplicates DWC-N003/N004
//   semantic             DWC-S001..S006 (src/analysis/ verdict engines)
void RunLintPasses(const LintInput& input, const LintAnalysis& analysis,
                   DiagnosticSink* sink);

// The semantic pass alone (defined in analysis_pass.cc): reports the
// self-maintainability, invertibility and complement-usage verdicts of
// `analysis.semantic` as diagnostics. Silent when the views do not form a
// valid warehouse (the shape pass owns those findings).
void ReportSemanticFindings(const LintInput& input,
                            const LintAnalysis& analysis,
                            DiagnosticSink* sink);

}  // namespace dwc

#endif  // DWC_LINT_PASSES_H_
