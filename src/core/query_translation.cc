#include "core/query_translation.h"

#include "algebra/optimizer.h"
#include "algebra/rewriter.h"
#include "algebra/simplifier.h"
#include "util/string_util.h"

namespace dwc {

namespace {

Status CheckNames(const ExprRef& query, const WarehouseSpec& spec) {
  for (const std::string& name : query->ReferencedNames()) {
    if (spec.FindInverse(name) == nullptr &&
        spec.FindWarehouseSchema(name) == nullptr) {
      return Status::NotFound(
          StrCat("query references '", name,
                 "', which is neither a base relation nor a warehouse view"));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<ExprRef> TranslateQueryRaw(const ExprRef& query,
                                  const WarehouseSpec& spec) {
  DWC_RETURN_IF_ERROR(CheckNames(query, spec));
  return SubstituteNames(query, spec.inverses());
}

ExprRef PlanTranslation(const ExprRef& query, const WarehouseSpec& spec,
                        const SchemaResolver& resolver) {
  ExprRef translated = SubstituteNames(query, spec.inverses());
  translated = Simplify(translated, &resolver);
  // Push selections toward the leaves so the evaluator can probe indexes
  // inside the (often large) inverse reconstructions.
  translated = PushDownSelections(translated, resolver);
  translated = Simplify(translated, &resolver);
  // Canonicalize through the spec's interner: repeated translations of the
  // same (or structurally overlapping) queries share nodes with each other
  // and with the maintenance machinery, which is what lets the warehouse's
  // subplan cache turn a repeated translated query against an unchanged
  // state into a pure cache hit.
  return spec.interner()->Intern(translated);
}

Result<ExprRef> TranslateQuery(const ExprRef& query,
                               const WarehouseSpec& spec) {
  DWC_RETURN_IF_ERROR(CheckNames(query, spec));
  return PlanTranslation(query, spec, spec.WarehouseResolver());
}

}  // namespace dwc
