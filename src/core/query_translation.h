#ifndef DWC_CORE_QUERY_TRANSLATION_H_
#define DWC_CORE_QUERY_TRANSLATION_H_

#include "algebra/expr.h"
#include "core/warehouse_spec.h"
#include "util/result.h"

namespace dwc {

// Translates a query Q over the base relations D into the query
// Q̄ = Q ∘ W^-1 over the warehouse W = V ∪ C (Section 3, Steps 3-4):
// every base-relation reference is replaced by its inverse expression and
// the result is simplified. Theorem 3.1 guarantees Q(d) = Q̄(W(d)).
//
// Fails if Q references a relation that is neither a base relation with an
// inverse nor a warehouse relation.
Result<ExprRef> TranslateQuery(const ExprRef& query, const WarehouseSpec& spec);

// As above, without the final simplification pass (useful for inspecting the
// raw substitution).
Result<ExprRef> TranslateQueryRaw(const ExprRef& query,
                                  const WarehouseSpec& spec);

// The plan half of TranslateQuery, for a query whose names the caller has
// already checked: substitutes W^-1, simplifies, pushes selections toward
// the leaves, simplifies again and interns the plan in the spec's
// interner. `resolver` gives the schema of every name the plan may read.
// Warehouse::AnswerQueryAt goes through it too, so both paths evaluate the
// same plan.
ExprRef PlanTranslation(const ExprRef& query, const WarehouseSpec& spec,
                        const SchemaResolver& resolver);

}  // namespace dwc

#endif  // DWC_CORE_QUERY_TRANSLATION_H_
