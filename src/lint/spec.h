#ifndef DWC_LINT_SPEC_H_
#define DWC_LINT_SPEC_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/view.h"
#include "lint/diagnostic.h"
#include "parser/parser.h"
#include "relational/catalog.h"
#include "relational/constraints.h"

namespace dwc {

// A view definition together with where it was declared.
struct LintedView {
  ViewDef def;
  SourceLocation loc;
};

// An inclusion dependency together with where it was declared. Unlike
// Catalog (which rejects cycle-closing INDs outright), the lint input
// keeps every structurally valid IND so the cycle pass can report the
// whole cycle.
struct LintedInd {
  InclusionDependency ind;
  SourceLocation loc;
};

// A QUERY statement together with where it was issued. The semantic pass
// feeds these to the dead-complement demand analysis.
struct LintedQuery {
  ExprRef expr;
  SourceLocation loc;
};

// Everything the analysis passes look at: a best-effort catalog (valid
// declarations only), the declared views, the raw IND list, the script's
// queries, and source positions. Built either from a parsed script (with
// positions) or from in-memory objects (without).
struct LintInput {
  std::shared_ptr<const Catalog> catalog;
  std::vector<LintedView> views;
  std::vector<LintedInd> inds;
  std::vector<LintedQuery> queries;
  // Where each relation was declared; empty for in-memory input.
  std::map<std::string, SourceLocation> relation_locs;
  SourceMap source_map;
};

// Where a finding about `node` in `view` points: the node's clause (the
// projection list, the selection predicate) so that multi-line definitions
// point at the right line, else the node itself, else the view's
// declaration. A null node gives the view's declaration.
SourceLocation ClauseAnchor(const LintInput& input, const LintedView& view,
                            const ExprRef& node);

// Walks a parsed script, reporting declaration-level findings (duplicate
// declarations, malformed INDs, INSERT/DELETE into unknown relations) and
// assembling the input for the analysis passes. Invalid declarations are
// reported and skipped; analysis continues with what remains.
LintInput BuildLintInput(const ParsedProgram& program, DiagnosticSink* sink);

// Wraps an existing catalog + view set (no source positions) for the
// SpecifyWarehouseChecked path.
LintInput MakeLintInput(std::shared_ptr<const Catalog> catalog,
                        const std::vector<ViewDef>& views);

}  // namespace dwc

#endif  // DWC_LINT_SPEC_H_
