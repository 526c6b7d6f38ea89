#include "lint/spec.h"

#include <utility>
#include <variant>

#include "util/string_util.h"

namespace dwc {

namespace {

// Validates one IND declaration against the catalog, reporting findings.
// Returns true when the IND is well-formed (regardless of acyclicity,
// which the cycle pass owns).
bool CheckInclusion(const InclusionStmt& stmt, const Catalog& catalog,
                    DiagnosticSink* sink) {
  const InclusionDependency& ind = stmt.ind;
  bool ok = true;
  const Schema* lhs = catalog.FindSchema(ind.lhs_relation);
  const Schema* rhs = catalog.FindSchema(ind.rhs_relation);
  if (lhs == nullptr) {
    sink->Report("DWC-E002", stmt.loc,
                 StrCat("inclusion dependency references undeclared relation '",
                        ind.lhs_relation, "'"),
                 ind.lhs_relation);
    ok = false;
  }
  if (rhs == nullptr) {
    sink->Report("DWC-E002", stmt.loc,
                 StrCat("inclusion dependency references undeclared relation '",
                        ind.rhs_relation, "'"),
                 ind.rhs_relation);
    ok = false;
  }
  if (ind.lhs_attrs.empty() || ind.lhs_attrs.size() != ind.rhs_attrs.size()) {
    sink->Report("DWC-E007", stmt.loc,
                 StrCat("inclusion dependency ", ind.ToString(),
                        " needs nonempty attribute lists of equal length"));
    return false;
  }
  if (!ok) {
    return false;
  }
  for (size_t i = 0; i < ind.lhs_attrs.size(); ++i) {
    std::optional<size_t> li = lhs->IndexOf(ind.lhs_attrs[i]);
    std::optional<size_t> ri = rhs->IndexOf(ind.rhs_attrs[i]);
    if (!li.has_value()) {
      sink->Report("DWC-E003", stmt.loc,
                   StrCat("inclusion dependency references attribute '",
                          ind.lhs_attrs[i], "' absent from '",
                          ind.lhs_relation, "'"),
                   ind.lhs_relation);
      ok = false;
    }
    if (!ri.has_value()) {
      sink->Report("DWC-E003", stmt.loc,
                   StrCat("inclusion dependency references attribute '",
                          ind.rhs_attrs[i], "' absent from '",
                          ind.rhs_relation, "'"),
                   ind.rhs_relation);
      ok = false;
    }
    if (li.has_value() && ri.has_value() &&
        lhs->attribute(*li).type != rhs->attribute(*ri).type) {
      sink->Report("DWC-E007", stmt.loc,
                   StrCat("inclusion dependency compares '", ind.lhs_attrs[i],
                          "' (", ValueTypeName(lhs->attribute(*li).type),
                          ") with '", ind.rhs_attrs[i], "' (",
                          ValueTypeName(rhs->attribute(*ri).type), ")"));
      ok = false;
    }
  }
  if (ok && !ind.IsCommonAttrForm()) {
    sink->Report("DWC-N001", stmt.loc,
                 StrCat("inclusion dependency ", ind.ToString(),
                        " renames attributes; Theorem 2.2 cover candidates "
                        "only arise from common-attribute INDs"));
  }
  return ok;
}

}  // namespace

SourceLocation ClauseAnchor(const LintInput& input, const LintedView& view,
                            const ExprRef& node) {
  SourceLocation loc = input.source_map.ClauseLoc(node);
  if (!loc.valid()) {
    loc = input.source_map.ExprLoc(node);
  }
  return loc.valid() ? loc : view.loc;
}

LintInput BuildLintInput(const ParsedProgram& program, DiagnosticSink* sink) {
  LintInput input;
  auto catalog = std::make_shared<Catalog>();
  input.source_map = program.source_map;

  for (const Statement& statement : program.statements) {
    if (const auto* create = std::get_if<CreateTableStmt>(&statement)) {
      if (catalog->HasRelation(create->name)) {
        sink->Report("DWC-E008", create->loc,
                     StrCat("relation '", create->name, "' declared twice"),
                     create->name);
        continue;
      }
      Status status = catalog->AddRelation(create->name, create->schema);
      if (!status.ok()) {
        sink->Report("DWC-E008", create->loc, status.message(), create->name);
        continue;
      }
      input.relation_locs.emplace(create->name, create->loc);
      if (create->key.has_value()) {
        bool key_ok = true;
        for (const std::string& attr : *create->key) {
          if (!create->schema.Contains(attr)) {
            sink->Report("DWC-E003", create->loc,
                         StrCat("key of '", create->name,
                                "' names attribute '", attr,
                                "' absent from its schema"),
                         create->name);
            key_ok = false;
          }
        }
        if (key_ok) {
          // Cannot fail: the relation is fresh and the attributes exist.
          Status key_status = catalog->AddKey(create->name, *create->key);
          (void)key_status;
        }
      }
    } else if (const auto* inclusion = std::get_if<InclusionStmt>(&statement)) {
      if (CheckInclusion(*inclusion, *catalog, sink)) {
        input.inds.push_back(LintedInd{inclusion->ind, inclusion->loc});
        // Keep the catalog usable for downstream passes; cycle-closing
        // INDs stay out of it but are still in `inds` for the cycle pass.
        Status status = catalog->AddInclusion(inclusion->ind);
        (void)status;
      }
    } else if (const auto* view = std::get_if<ViewStmt>(&statement)) {
      bool duplicate = catalog->HasRelation(view->name);
      for (const LintedView& existing : input.views) {
        duplicate = duplicate || existing.def.name == view->name;
      }
      if (duplicate) {
        sink->Report("DWC-E008", view->loc,
                     StrCat("name '", view->name, "' already declared"),
                     view->name);
        continue;
      }
      input.views.push_back(
          LintedView{ViewDef{view->name, view->expr}, view->loc});
    } else if (const auto* insert = std::get_if<InsertStmt>(&statement)) {
      if (!catalog->HasRelation(insert->relation)) {
        sink->Report("DWC-E002", insert->loc,
                     StrCat("INSERT into undeclared relation '",
                            insert->relation, "'"),
                     insert->relation);
      }
    } else if (const auto* del = std::get_if<DeleteStmt>(&statement)) {
      if (!catalog->HasRelation(del->relation)) {
        sink->Report("DWC-E002", del->loc,
                     StrCat("DELETE from undeclared relation '",
                            del->relation, "'"),
                     del->relation);
      }
    } else if (const auto* delta = std::get_if<DeltaStmt>(&statement)) {
      if (!catalog->HasRelation(delta->relation)) {
        sink->Report("DWC-E002", delta->loc,
                     StrCat("DELTA against undeclared relation '",
                            delta->relation, "'"),
                     delta->relation);
      }
    } else if (const auto* query = std::get_if<QueryStmt>(&statement)) {
      input.queries.push_back(LintedQuery{query->expr, query->loc});
    }
    // SUMMARY statements are warehouse-load-time concerns; the
    // specification passes do not inspect them.
  }

  input.catalog = std::move(catalog);
  return input;
}

LintInput MakeLintInput(std::shared_ptr<const Catalog> catalog,
                        const std::vector<ViewDef>& views) {
  LintInput input;
  for (const InclusionDependency& ind : catalog->inclusions()) {
    input.inds.push_back(LintedInd{ind, SourceLocation{}});
  }
  for (const ViewDef& view : views) {
    input.views.push_back(LintedView{view, SourceLocation{}});
  }
  input.catalog = std::move(catalog);
  return input;
}

}  // namespace dwc
