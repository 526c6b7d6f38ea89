#include "core/independence.h"

#include "algebra/implication.h"
#include "algebra/simplifier.h"
#include "core/psj.h"
#include "util/string_util.h"

namespace dwc {

std::string IndependenceReport::ToString() const {
  std::string out = StrCat("available: {", Join(available, ", "), "}\n");
  for (const auto& [base, ok] : base_reconstructible) {
    out += StrCat("  ", base, ": ",
                  ok ? "reconstructible" : "NOT reconstructible", "\n");
  }
  out += StrCat("query independent: ",
                fully_query_independent ? "yes" : "no", "\n");
  return out;
}

IndependenceReport AnalyzeIndependence(
    const WarehouseSpec& spec, const std::set<std::string>& available) {
  IndependenceReport report;
  for (const std::string& name : available) {
    if (spec.FindWarehouseSchema(name) != nullptr) {
      report.available.insert(name);
    }
  }
  report.fully_query_independent = true;
  for (const auto& [base, inverse] : spec.inverses()) {
    bool ok = true;
    for (const std::string& name : inverse->ReferencedNames()) {
      if (report.available.count(name) == 0) {
        ok = false;
        break;
      }
    }
    report.base_reconstructible[base] = ok;
    report.fully_query_independent &= ok;
  }
  return report;
}

IndependenceReport AnalyzeFullIndependence(const WarehouseSpec& spec) {
  std::set<std::string> all;
  for (const ViewDef& view : spec.AllWarehouseViews()) {
    all.insert(view.name);
  }
  return AnalyzeIndependence(spec, all);
}

namespace {

// A full-schema selection view over a single base: sigma_Q(R).
struct SelectionView {
  std::string name;
  std::string base;
  PredicateRef predicate;
};

std::vector<SelectionView> AvailableSelectionViews(
    const WarehouseSpec& spec, const IndependenceReport& report) {
  std::vector<SelectionView> result;
  for (const PsjView& view : spec.psj_views()) {
    if (report.available.count(view.name) == 0 || view.bases.size() != 1 ||
        !view.is_sj) {
      continue;
    }
    result.push_back(SelectionView{view.name, view.bases[0], view.predicate});
  }
  return result;
}

// Recursive rewriter. `pending` is the conjunction of selections collected
// on the path down to the current node (used when the node is a base).
Result<ExprRef> RewriteNode(const ExprRef& expr, const WarehouseSpec& spec,
                            const IndependenceReport& report,
                            const std::vector<SelectionView>& selections,
                            const PredicateRef& pending) {
  switch (expr->kind()) {
    case Expr::Kind::kBase: {
      const std::string& name = expr->base_name();
      auto base = report.base_reconstructible.find(name);
      if (base == report.base_reconstructible.end()) {
        // A warehouse relation: must be available.
        if (report.available.count(name) > 0) {
          return Expr::Select(pending, expr);
        }
        return Status::FailedPrecondition(
            StrCat("'", name, "' is not available"));
      }
      if (base->second) {
        return Expr::Select(pending, *spec.FindInverse(name));
      }
      // Not reconstructible: try a selection view sigma_Q(name) with
      // pending => Q.
      for (const SelectionView& view : selections) {
        if (view.base == name && Implies(pending, view.predicate)) {
          return Expr::Select(pending, Expr::Base(view.name));
        }
      }
      return Status::FailedPrecondition(
          StrCat("base relation '", name,
                 "' is neither reconstructible nor covered by an available "
                 "selection view for this restriction"));
    }
    case Expr::Kind::kEmpty:
      return Expr::Select(pending, expr);
    case Expr::Kind::kSelect:
      return RewriteNode(expr->child(), spec, report, selections,
                         Predicate::And(pending, expr->predicate()));
    case Expr::Kind::kProject: {
      // Selections above a projection only mention visible attributes;
      // they can stay above it. Reset pending below.
      DWC_ASSIGN_OR_RETURN(
          ExprRef child, RewriteNode(expr->child(), spec, report, selections,
                                     Predicate::True()));
      return Expr::Select(pending, Expr::Project(expr->attrs(), child));
    }
    case Expr::Kind::kRename: {
      DWC_ASSIGN_OR_RETURN(
          ExprRef child, RewriteNode(expr->child(), spec, report, selections,
                                     Predicate::True()));
      return Expr::Select(pending, Expr::Rename(expr->renames(), child));
    }
    case Expr::Kind::kJoin:
    case Expr::Kind::kUnion:
    case Expr::Kind::kDifference: {
      DWC_ASSIGN_OR_RETURN(
          ExprRef left, RewriteNode(expr->left(), spec, report, selections,
                                    Predicate::True()));
      DWC_ASSIGN_OR_RETURN(
          ExprRef right, RewriteNode(expr->right(), spec, report, selections,
                                     Predicate::True()));
      ExprRef combined;
      switch (expr->kind()) {
        case Expr::Kind::kJoin:
          combined = Expr::Join(left, right);
          break;
        case Expr::Kind::kUnion:
          combined = Expr::Union(left, right);
          break;
        default:
          combined = Expr::Difference(left, right);
          break;
      }
      return Expr::Select(pending, combined);
    }
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace

Result<ExprRef> RewriteOverAvailable(const ExprRef& query,
                                     const WarehouseSpec& spec,
                                     const IndependenceReport& report) {
  std::vector<SelectionView> selections =
      AvailableSelectionViews(spec, report);
  DWC_ASSIGN_OR_RETURN(ExprRef rewritten,
                       RewriteNode(query, spec, report, selections,
                                   Predicate::True()));
  SchemaResolver resolver = spec.WarehouseResolver();
  return Simplify(rewritten, &resolver);
}

bool QueryAnswerable(const Expr& query, const WarehouseSpec& spec,
                     const IndependenceReport& report) {
  for (const std::string& name : query.ReferencedNames()) {
    auto base = report.base_reconstructible.find(name);
    if (base != report.base_reconstructible.end()) {
      if (!base->second) {
        return false;
      }
      continue;
    }
    if (spec.FindWarehouseSchema(name) != nullptr) {
      if (report.available.count(name) == 0) {
        return false;
      }
      continue;
    }
    return false;  // Unknown relation.
  }
  return true;
}

}  // namespace dwc
