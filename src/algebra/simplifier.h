#ifndef DWC_ALGEBRA_SIMPLIFIER_H_
#define DWC_ALGEBRA_SIMPLIFIER_H_

#include "algebra/expr.h"
#include "algebra/schema_inference.h"

namespace dwc {

// Applies semantics-preserving cleanup rules bottom-up:
//   select[true](e) -> e            select(empty) -> empty
//   select[p](select[q](e)) -> select[p and q](e)
//   project over project collapses; identity projections vanish
//   project[A](e1 union e2) -> project[A](e1) union project[A](e2)
//     (needs the union's schema; never over a difference)
//   joins/unions/differences with the empty relation collapse
//   a union chain drops every arm structurally equal to an earlier arm
//     (set semantics: union is idempotent, associative and commutative)
//   a difference drops every arm of its left union chain that is
//     structurally equal to an arm of its right chain, (A union B) minus
//     (A union C) -> B minus (A union C), and is empty when every arm drops
//     (needs the schemas; only when the kept chain keeps the left's column
//     order)
//   rename with an empty map vanishes
//
// Some rules need output schemas (e.g. `e join empty -> empty` must know the
// join schema); those only fire when `resolver` is non-null and succeeds.
// Translated queries (Q over W^-1) shrink considerably under these rules when
// constraints have made complements empty — see Example 2.4.
ExprRef Simplify(const ExprRef& expr, const SchemaResolver* resolver = nullptr);

}  // namespace dwc

#endif  // DWC_ALGEBRA_SIMPLIFIER_H_
