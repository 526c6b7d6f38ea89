#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/facts.h"
#include "lint/passes.h"
#include "util/string_util.h"

namespace dwc {

namespace {

// Where to anchor a finding about warehouse relation `name`: its own
// declaration when the script declares it, else the declaration of `base`
// (for synthetic complements), else nowhere.
SourceLocation RelationLoc(const LintInput& input, const std::string& name,
                           const std::string& base) {
  for (const LintedView& view : input.views) {
    if (view.def.name == name) {
      return view.loc;
    }
  }
  auto it = input.relation_locs.find(base);
  return it == input.relation_locs.end() ? SourceLocation{} : it->second;
}

std::string ClaimedName(const AnalysisResult& result,
                        const std::string& base) {
  for (const ViewDef& claimed : result.claimed_complements) {
    if (claimed.expr != nullptr &&
        claimed.expr->ReferencedNames().count(base) > 0) {
      return claimed.name;
    }
  }
  return base;
}

void ReportInvertibility(const LintInput& input, const AnalysisResult& result,
                         DiagnosticSink* sink) {
  // Without claimed complements the warehouse constructs C itself and
  // W = V ∪ C is invertible by construction — nothing to verify.
  if (result.claimed_complements.empty()) {
    return;
  }
  for (const BaseInvertibility& entry : result.invertibility.per_base) {
    for (const InvertFinding& finding : entry.findings) {
      switch (finding.kind) {
        case InvertFindingKind::kMissingAttributes:
          sink->Report(
              "DWC-S002",
              RelationLoc(input, ClaimedName(result, entry.base), entry.base),
              StrCat("base relation '", entry.base,
                     "' is not reconstructible: the claimed complement "
                     "drops {", Join(finding.missing, ", "),
                     "} (minimal missing-attribute witness)"),
              entry.base);
          break;
        case InvertFindingKind::kNoResidual:
        case InvertFindingKind::kUnverifiedSubtraction:
          sink->Report(
              "DWC-S003",
              RelationLoc(input, ClaimedName(result, entry.base), entry.base),
              StrCat("base relation '", entry.base,
                     "' has no verified residual store: ", finding.detail),
              entry.base);
          break;
      }
    }
  }
}

void ReportSelfMaintenance(const LintInput& input,
                           const AnalysisResult& result,
                           DiagnosticSink* sink) {
  for (const SelfMaintCertificate& cert : result.selfmaint.certificates) {
    if (cert.verdict != MaintVerdict::kSource) {
      continue;
    }
    sink->Report(
        "DWC-S001", RelationLoc(input, cert.relation, cert.base),
        StrCat("maintenance of '", cert.relation, "' under a ", cert.base,
               " ", DeltaKindName(cert.kind),
               " is classified SOURCE; integration must re-query the "
               "source (reads: ", Join(cert.reads, ", "), ")"),
        cert.relation);
  }
}

void ReportLossyProjections(const LintInput& input,
                            const LintAnalysis& analysis,
                            DiagnosticSink* sink) {
  DataflowAnalyzer analyzer(input.catalog.get());
  // What every user view together still exposes, per base.
  std::map<std::string, AttrSet> exposed;
  for (const ViewDef& view : analysis.semantic.user_views) {
    const NodeFacts& facts = analyzer.Analyze(view.expr);
    for (const auto& [base, attrs] : facts.provenance) {
      exposed[base].insert(attrs.begin(), attrs.end());
    }
  }
  std::set<std::string> reported;
  for (size_t i = 0; i < input.views.size(); ++i) {
    const LintedView& view = input.views[i];
    if (IsClaimedComplementName(view.def.name)) {
      continue;
    }
    const NodeFacts& facts = analyzer.Analyze(view.def.expr);
    for (const auto& [base, dropped] : facts.dropped) {
      AttrSet unexposed;
      for (const std::string& attr : dropped) {
        if (exposed[base].count(attr) == 0) {
          unexposed.insert(attr);
        }
      }
      if (unexposed.empty() || !reported.insert(base).second) {
        continue;
      }
      sink->Report(
          "DWC-S004",
          ClauseAnchor(input, view, analysis.walks[i].projection),
          StrCat("no view exposes {", Join(unexposed, ", "),
                 "} of base relation '", base,
                 "'; those attributes are recoverable only through the "
                 "complement"),
          base);
    }
  }
}

void ReportComplementUsage(const LintInput& input,
                           const AnalysisResult& result,
                           DiagnosticSink* sink) {
  auto base_of = [&result](const std::string& complement) {
    const auto& per_base = result.spec->complement().per_base;
    for (const BaseComplementInfo& info : per_base) {
      if (info.complement_name == complement) {
        return info.base;
      }
    }
    return complement;
  };
  for (const auto& [name, dead] : result.usage.dead_columns) {
    sink->Report(
        "DWC-S005", RelationLoc(input, name, base_of(name)),
        StrCat("complement relation '", name, "' columns {", Join(dead, ", "),
               "} are read by no maintenance expression and no query"),
        name);
  }
  for (const std::string& name : result.usage.dead_relations) {
    sink->Report(
        "DWC-S006", RelationLoc(input, name, base_of(name)),
        StrCat("complement relation '", name,
               "' is read by no view maintenance expression and no "
               "query; the views are maintainable without it"),
        name);
  }
}

}  // namespace

void ReportSemanticFindings(const LintInput& input,
                            const LintAnalysis& analysis,
                            DiagnosticSink* sink) {
  if (input.catalog == nullptr || input.views.empty()) {
    return;
  }
  const AnalysisResult& result = analysis.semantic;
  ReportInvertibility(input, result, sink);
  if (!result.spec.has_value()) {
    // Not a valid PSJ warehouse; the shape pass owns those findings and
    // the maintenance/usage engines have nothing sound to say.
    return;
  }
  ReportSelfMaintenance(input, result, sink);
  ReportLossyProjections(input, analysis, sink);
  ReportComplementUsage(input, result, sink);
}

}  // namespace dwc
