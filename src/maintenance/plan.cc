#include "maintenance/plan.h"

#include "algebra/optimizer.h"
#include "algebra/simplifier.h"
#include "util/string_util.h"

namespace dwc {

void MaintenancePlan::Set(const std::string& warehouse_relation,
                          const std::string& base, DeltaPair delta) {
  plans_[warehouse_relation][base] = std::move(delta);
}

const DeltaPair* MaintenancePlan::Find(const std::string& warehouse_relation,
                                       const std::string& base) const {
  auto it = plans_.find(warehouse_relation);
  if (it == plans_.end()) {
    return nullptr;
  }
  auto inner = it->second.find(base);
  return inner == it->second.end() ? nullptr : &inner->second;
}

std::string MaintenancePlan::ToString() const {
  std::string out;
  for (const auto& [relation, per_base] : plans_) {
    for (const auto& [base, delta] : per_base) {
      out += StrCat("on update(", base, "): Δ+", relation, " = ",
                    delta.plus->ToString(), "\n");
      out += StrCat("on update(", base, "): Δ-", relation, " = ",
                    delta.minus->ToString(), "\n");
    }
  }
  return out;
}

namespace {

// Replaces subtrees structurally equal to a warehouse relation's expanded
// definition with a reference to the materialized relation. This makes the
// derived expressions reuse old view states (Example 4.1) instead of
// reconstructing them from inverses.
ExprRef FoldMaterialized(const ExprRef& expr,
                         const std::vector<ViewDef>& expanded) {
  for (const ViewDef& view : expanded) {
    if (expr->Equals(*view.expr)) {
      return Expr::Base(view.name);
    }
  }
  switch (expr->kind()) {
    case Expr::Kind::kBase:
    case Expr::Kind::kEmpty:
      return expr;
    case Expr::Kind::kSelect: {
      ExprRef child = FoldMaterialized(expr->child(), expanded);
      return child == expr->child()
                 ? expr
                 : Expr::Select(expr->predicate(), std::move(child));
    }
    case Expr::Kind::kProject: {
      ExprRef child = FoldMaterialized(expr->child(), expanded);
      return child == expr->child()
                 ? expr
                 : Expr::Project(expr->attrs(), std::move(child));
    }
    case Expr::Kind::kRename: {
      ExprRef child = FoldMaterialized(expr->child(), expanded);
      return child == expr->child()
                 ? expr
                 : Expr::Rename(expr->renames(), std::move(child));
    }
    case Expr::Kind::kJoin:
    case Expr::Kind::kUnion:
    case Expr::Kind::kDifference: {
      ExprRef left = FoldMaterialized(expr->left(), expanded);
      ExprRef right = FoldMaterialized(expr->right(), expanded);
      if (left == expr->left() && right == expr->right()) {
        return expr;
      }
      switch (expr->kind()) {
        case Expr::Kind::kJoin:
          return Expr::Join(std::move(left), std::move(right));
        case Expr::Kind::kUnion:
          return Expr::Union(std::move(left), std::move(right));
        default:
          return Expr::Difference(std::move(left), std::move(right));
      }
    }
  }
  return expr;
}

Status CheckIndependence(const ExprRef& expr, const WarehouseSpec& spec,
                         const std::set<std::string>& delta_names) {
  for (const std::string& name : expr->ReferencedNames()) {
    if (spec.FindWarehouseSchema(name) == nullptr &&
        delta_names.find(name) == delta_names.end()) {
      return Status::Internal(
          StrCat("maintenance expression still references '", name,
                 "': update independence violated"));
    }
  }
  return Status::Ok();
}

}  // namespace

namespace {

// Warehouse relation definitions expanded down to base relations.
std::vector<ViewDef> ExpandWarehouseViews(const WarehouseSpec& spec) {
  std::map<std::string, ExprRef> view_defs;
  for (const ViewDef& view : spec.views()) {
    view_defs[view.name] = view.expr;
  }
  std::vector<ViewDef> expanded;
  for (const ViewDef& view : spec.AllWarehouseViews()) {
    expanded.push_back(
        ViewDef{view.name, SubstituteNames(view.expr, view_defs)});
  }
  return expanded;
}

// Derives the deltas of every affected warehouse relation for a
// simultaneous update of `bases`; the core of both public entry points.
Result<std::map<std::string, DeltaPair>> DeriveForBases(
    const WarehouseSpec& spec, const std::set<std::string>& bases,
    const std::vector<ViewDef>& expanded) {
  const Catalog& catalog = spec.catalog();
  SchemaResolver base_resolver = ResolverFromCatalog(catalog);
  SchemaResolver warehouse_resolver = spec.WarehouseResolver();

  std::set<std::string> delta_names;
  std::map<std::string, const Schema*> delta_schemas;
  for (const std::string& base : bases) {
    const Schema* schema = catalog.FindSchema(base);
    if (schema == nullptr) {
      return Status::NotFound(StrCat("unknown base relation '", base, "'"));
    }
    delta_names.insert(DeltaInsName(base));
    delta_names.insert(DeltaDelName(base));
    delta_schemas[DeltaInsName(base)] = schema;
    delta_schemas[DeltaDelName(base)] = schema;
  }
  auto final_resolver = [&](const std::string& name) -> const Schema* {
    auto it = delta_schemas.find(name);
    if (it != delta_schemas.end()) {
      return it->second;
    }
    return warehouse_resolver(name);
  };
  SchemaResolver final_resolver_fn = final_resolver;

  std::map<std::string, DeltaPair> result;
  for (const ViewDef& view : expanded) {
    bool touched = false;
    for (const std::string& base : bases) {
      if (view.expr->ReferencedNames().count(base) > 0) {
        touched = true;
        break;
      }
    }
    if (!touched) {
      continue;
    }
    DeltaDeriver deriver(bases, base_resolver);
    DWC_ASSIGN_OR_RETURN(DeltaPair delta, deriver.Derive(view.expr));

    DeltaPair folded;
    folded.plus = FoldMaterialized(delta.plus, expanded);
    folded.minus = FoldMaterialized(delta.minus, expanded);

    DeltaPair substituted;
    substituted.plus = SubstituteNames(folded.plus, spec.inverses());
    substituted.minus = SubstituteNames(folded.minus, spec.inverses());

    DeltaPair simplified;
    simplified.plus = PushDownSelections(
        Simplify(substituted.plus, &final_resolver_fn), final_resolver_fn);
    simplified.minus = PushDownSelections(
        Simplify(substituted.minus, &final_resolver_fn), final_resolver_fn);
    simplified.plus = Simplify(simplified.plus, &final_resolver_fn);
    simplified.minus = Simplify(simplified.minus, &final_resolver_fn);

    DWC_RETURN_IF_ERROR(CheckIndependence(simplified.plus, spec, delta_names));
    DWC_RETURN_IF_ERROR(
        CheckIndependence(simplified.minus, spec, delta_names));
    result.emplace(view.name, std::move(simplified));
  }
  return result;
}

}  // namespace

Result<MaintenancePlan> DeriveMaintenancePlan(const WarehouseSpec& spec) {
  std::vector<ViewDef> expanded = ExpandWarehouseViews(spec);
  MaintenancePlan plan;
  for (const std::string& base : spec.catalog().RelationNames()) {
    DWC_ASSIGN_OR_RETURN(auto per_view,
                         DeriveForBases(spec, {base}, expanded));
    for (auto& [relation, delta] : per_view) {
      plan.Set(relation, base, std::move(delta));
    }
  }
  return plan;
}

Result<std::map<std::string, DeltaPair>> DeriveTransactionPlan(
    const WarehouseSpec& spec, const std::set<std::string>& bases) {
  std::vector<ViewDef> expanded = ExpandWarehouseViews(spec);
  return DeriveForBases(spec, bases, expanded);
}

Result<MaintenancePlan> DeriveSelectionOnlyPlan(
    const std::vector<ViewDef>& views, const Catalog& catalog) {
  MaintenancePlan plan;
  for (const ViewDef& view : views) {
    // Accept sigma_p(B) with any number of stacked selections.
    ExprRef node = view.expr;
    PredicateRef predicate = Predicate::True();
    while (node->kind() == Expr::Kind::kSelect) {
      predicate = Predicate::And(predicate, node->predicate());
      node = node->child();
    }
    if (node->kind() != Expr::Kind::kBase ||
        !catalog.HasRelation(node->base_name())) {
      return Status::FailedPrecondition(
          StrCat("view '", view.name,
                 "' is not selection-only: the no-complement fast path of "
                 "Section 4 does not apply"));
    }
    const std::string& base = node->base_name();
    DeltaPair delta;
    delta.plus =
        Expr::Select(predicate, Expr::Base(DeltaInsName(base)));
    delta.minus =
        Expr::Select(predicate, Expr::Base(DeltaDelName(base)));
    plan.Set(view.name, base, std::move(delta));
  }
  return plan;
}

}  // namespace dwc
