#ifndef DWC_ALGEBRA_IMPLICATION_H_
#define DWC_ALGEBRA_IMPLICATION_H_

#include "algebra/predicate.h"

namespace dwc {

// The one predicate reasoner. Sound but incomplete: `true` is a proof,
// `false` means "could not prove it", never "refuted".
//
// A predicate is expanded to disjunctive normal form, with NOT pushed down
// onto the comparisons. Each comparison becomes one literal: attr <op>
// constant, attr <op> attr over two distinct attributes, or a constant
// (const/const comparisons and x <op> x fold to true or false). The
// expansion stops at 128 disjuncts; a predicate that would need more is
// not decided. A disjunct is contradictory when it holds a false literal,
// or two literals on the same attribute (or the same attribute pair) that
// no value satisfies together under the engine's total Value order
// (a >= 3 and a < 2; a < b and a >= b).

// Every DNF disjunct of `p` is contradictory, so no tuple satisfies `p`.
bool ProvablyUnsatisfiable(const PredicateRef& p);

// Every tuple satisfying `p` satisfies `q`, proven as
// ProvablyUnsatisfiable(p AND NOT q). Implies(Predicate::True(), p) proves
// `p` a tautology.
//
// Decides when a selection view sigma_Q(R) can answer a query restriction
// sigma_P(R) locally (P implies Q), raising the warehouse's degree of query
// independence (Section 6), and backs the linter's empty-view, always-true
// selection and subsumed-view checks.
bool Implies(const PredicateRef& p, const PredicateRef& q);

}  // namespace dwc

#endif  // DWC_ALGEBRA_IMPLICATION_H_
