#ifndef DWC_CORE_QUERY_TRANSLATION_H_
#define DWC_CORE_QUERY_TRANSLATION_H_

#include "algebra/expr.h"
#include "core/warehouse_spec.h"
#include "util/result.h"

namespace dwc {

// Translates a query Q over the base relations D into a query Q̄ over the
// warehouse W = V ∪ C with Q(d) = Q̄(W(d)) (Theorem 3.1). First every block
// [π_B] [σ_p] (R1 ⋈ … ⋈ Rk) of Q that a stored view V = [π_A] σ_q(R1 ⋈ …
// ⋈ Rk) answers (B and p's attributes within A, p implies q) becomes
// [π_B] σ_p(V); then every remaining base-relation reference is replaced by
// its inverse expression (Section 3, Steps 3-4) and the result simplified.
// Last, a difference loses every right arm that the spec's disjointness
// facts (WarehouseSpec::disjoint_facts) prove disjoint from its left.
//
// Fails if Q references a relation that is neither a base relation with an
// inverse nor a warehouse relation.
Result<ExprRef> TranslateQuery(const ExprRef& query, const WarehouseSpec& spec);

// As above, without the final simplification pass (useful for inspecting the
// raw substitution).
Result<ExprRef> TranslateQueryRaw(const ExprRef& query,
                                  const WarehouseSpec& spec);

// The plan half of TranslateQuery, for a query whose names the caller has
// already checked: matches stored views, substitutes W^-1, simplifies,
// pushes selections toward the leaves, simplifies again, drops provably
// disjoint difference arms and interns the plan in the spec's interner.
// `resolver` gives the schema of every name the plan may read.
// Warehouse::AnswerQueryAt goes through it too, so both paths evaluate the
// same plan.
ExprRef PlanTranslation(const ExprRef& query, const WarehouseSpec& spec,
                        const SchemaResolver& resolver);

}  // namespace dwc

#endif  // DWC_CORE_QUERY_TRANSLATION_H_
