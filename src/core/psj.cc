#include "core/psj.h"

#include <algorithm>

#include "util/string_util.h"

namespace dwc {

bool PsjView::InvolvesBase(const std::string& base) const {
  return std::find(bases.begin(), bases.end(), base) != bases.end();
}

namespace {

// Below a non-PSJ operator only name resolution is still meaningful, and
// selections are still selections.
void WalkBelowNonPsj(const ExprRef& node, const Catalog& catalog,
                     PsjWalk* walk) {
  if (node == nullptr) {
    return;
  }
  if (node->kind() == Expr::Kind::kBase) {
    if (!catalog.HasRelation(node->base_name())) {
      walk->violations.push_back({PsjViolation::Kind::kUnknownBase, node, {}});
    }
    return;
  }
  if (node->kind() == Expr::Kind::kSelect) {
    walk->selections.push_back(node);
  }
  WalkBelowNonPsj(node->left(), catalog, walk);
  WalkBelowNonPsj(node->right(), catalog, walk);
}

// The join tree below the project/select prefix: base relations joined in
// any shape, with selections allowed around any subtree (they commute up
// over natural joins). Appends the bases joined.
void WalkJoinTree(const ExprRef& node, const Catalog& catalog,
                  std::vector<std::string>* bases, PsjWalk* walk) {
  switch (node->kind()) {
    case Expr::Kind::kBase: {
      const std::string& name = node->base_name();
      if (!catalog.HasRelation(name)) {
        walk->violations.push_back(
            {PsjViolation::Kind::kUnknownBase, node, {}});
      } else if (std::find(bases->begin(), bases->end(), name) !=
                 bases->end()) {
        walk->violations.push_back(
            {PsjViolation::Kind::kRepeatedBase, node, {}});
      } else {
        bases->push_back(name);
      }
      return;
    }
    case Expr::Kind::kSelect:
      walk->selections.push_back(node);
      WalkJoinTree(node->child(), catalog, bases, walk);
      return;
    case Expr::Kind::kJoin:
      WalkJoinTree(node->left(), catalog, bases, walk);
      WalkJoinTree(node->right(), catalog, bases, walk);
      return;
    case Expr::Kind::kProject:
      walk->violations.push_back(
          {PsjViolation::Kind::kProjectionBelowJoin, node, {}});
      WalkJoinTree(node->child(), catalog, bases, walk);
      return;
    case Expr::Kind::kUnion:
    case Expr::Kind::kDifference:
    case Expr::Kind::kRename:
    case Expr::Kind::kEmpty:
      walk->violations.push_back(
          {PsjViolation::Kind::kNonPsjOperator, node, {}});
      WalkBelowNonPsj(node->left(), catalog, walk);
      WalkBelowNonPsj(node->right(), catalog, walk);
      return;
  }
}

Status ViolationStatus(const std::string& view_name,
                       const PsjViolation& violation) {
  switch (violation.kind) {
    case PsjViolation::Kind::kUnknownBase:
      return Status::NotFound(StrCat("PSJ view references '",
                                     violation.node->base_name(),
                                     "' which is not a base relation of D"));
    case PsjViolation::Kind::kRepeatedBase:
      return Status::Unimplemented(
          StrCat("base relation '", violation.node->base_name(),
                 "' joined twice; self-joins need rename support which the "
                 "paper's construction excludes"));
    case PsjViolation::Kind::kProjectionBelowJoin:
    case PsjViolation::Kind::kNonPsjOperator:
      break;
    case PsjViolation::Kind::kUnknownProjectedAttribute:
      return Status::InvalidArgument(StrCat("view '", view_name,
                                            "' projects unknown attribute '",
                                            violation.attr, "'"));
    case PsjViolation::Kind::kUnknownSelectedAttribute:
      return Status::InvalidArgument(StrCat("view '", view_name,
                                            "' selects on unknown attribute '",
                                            violation.attr, "'"));
  }
  return Status::InvalidArgument(
      StrCat("expression is not a PSJ view: unexpected ",
             violation.node->ToString(), " below the join tree"));
}

// Records the attributes of the projection and of each selection that a
// well-formed join over `join_attrs` lacks.
void CheckAttributes(const AttrSet& join_attrs, PsjWalk* walk) {
  if (walk->projection != nullptr) {
    AttrSet projected(walk->projection->attrs().begin(),
                      walk->projection->attrs().end());
    for (const std::string& attr : projected) {
      if (join_attrs.find(attr) == join_attrs.end()) {
        walk->violations.push_back(
            {PsjViolation::Kind::kUnknownProjectedAttribute, walk->projection,
             attr});
      }
    }
    walk->projection_keeps_join = projected == join_attrs;
  }
  for (const ExprRef& select : walk->selections) {
    for (const std::string& attr : select->predicate()->Attributes()) {
      if (join_attrs.find(attr) == join_attrs.end()) {
        walk->violations.push_back(
            {PsjViolation::Kind::kUnknownSelectedAttribute, select, attr});
      }
    }
  }
}

// The violation that AnalyzePsj reports: the first one, except that among
// unknown selected attributes the least is named.
const PsjViolation& FirstViolation(const std::vector<PsjViolation>& all) {
  const PsjViolation* first = &all.front();
  if (first->kind != PsjViolation::Kind::kUnknownSelectedAttribute) {
    return *first;
  }
  for (const PsjViolation& violation : all) {
    if (violation.attr < first->attr) {
      first = &violation;
    }
  }
  return *first;
}

// The decomposition of a walk without violations.
PsjView Decompose(const ViewDef& view, std::vector<std::string> bases,
                  AttrSet join_attrs, const PsjWalk& walk) {
  PsjView result;
  result.name = view.name;
  result.expr = view.expr;
  result.predicate = Predicate::True();
  for (const ExprRef& select : walk.selections) {
    result.predicate = Predicate::And(result.predicate, select->predicate());
  }
  result.bases = std::move(bases);
  result.attrs = walk.projection == nullptr
                     ? std::move(join_attrs)
                     : AttrSet(walk.projection->attrs().begin(),
                               walk.projection->attrs().end());
  result.is_sj = walk.projection == nullptr || walk.projection_keeps_join;
  return result;
}

}  // namespace

PsjWalk WalkPsj(const ViewDef& view, const Catalog& catalog) {
  PsjWalk walk;
  // The project/select prefix. The outermost projection determines Z;
  // deeper projections only matter through it.
  ExprRef node = view.expr;
  for (;; node = node->child()) {
    if (node->kind() == Expr::Kind::kProject) {
      if (walk.projection == nullptr) {
        walk.projection = node;
      } else {
        walk.shadowed_projections.push_back(node);
      }
    } else if (node->kind() == Expr::Kind::kSelect) {
      walk.selections.push_back(node);
    } else {
      break;
    }
  }
  std::vector<std::string> bases;
  WalkJoinTree(node, catalog, &bases, &walk);
  AttrSet join_attrs;
  if (walk.violations.empty()) {
    // Every leaf is a base or a violation, so `bases` is not empty here.
    for (const std::string& base : bases) {
      AttrSet names = catalog.FindSchema(base)->attr_names();
      join_attrs.insert(names.begin(), names.end());
    }
    CheckAttributes(join_attrs, &walk);
  }
  if (!walk.violations.empty()) {
    walk.status = ViolationStatus(view.name, FirstViolation(walk.violations));
    return walk;
  }
  walk.psj = Decompose(view, std::move(bases), std::move(join_attrs), walk);
  return walk;
}

Result<PsjView> AnalyzePsj(const ViewDef& view, const Catalog& catalog) {
  PsjWalk walk = WalkPsj(view, catalog);
  if (!walk.psj.has_value()) {
    return walk.status;
  }
  return std::move(*walk.psj);
}

Result<std::vector<PsjView>> AnalyzeAllPsj(const std::vector<ViewDef>& views,
                                           const Catalog& catalog) {
  std::vector<PsjView> analyzed;
  analyzed.reserve(views.size());
  for (const ViewDef& view : views) {
    DWC_ASSIGN_OR_RETURN(PsjView psj, AnalyzePsj(view, catalog));
    analyzed.push_back(std::move(psj));
  }
  return analyzed;
}

ExprRef ProjectOntoSchema(const ExprRef& source, const AttrSet& source_attrs,
                          const Schema& rel_schema) {
  std::vector<std::string> names;
  names.reserve(rel_schema.size());
  for (const Attribute& attr : rel_schema.attributes()) {
    if (source_attrs.find(attr.name) == source_attrs.end()) {
      return Expr::Empty(rel_schema);
    }
    names.push_back(attr.name);
  }
  return Expr::Project(std::move(names), source);
}

}  // namespace dwc
