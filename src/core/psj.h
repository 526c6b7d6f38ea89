#ifndef DWC_CORE_PSJ_H_
#define DWC_CORE_PSJ_H_

#include <optional>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "algebra/predicate.h"
#include "algebra/view.h"
#include "relational/catalog.h"
#include "relational/schema.h"
#include "util/result.h"

namespace dwc {

// The normal form the paper assumes for warehouse views:
//   V = pi_Z( sigma_P( R_{i1} |x| ... |x| R_{ik} ) )
// over base relations of D. AnalyzePsj() recognizes expressions of this
// shape (also accepting selections pushed below joins, missing projections,
// missing selections and stacked project/select prefixes, all of which
// normalize into it) and extracts the parts.
struct PsjView {
  std::string name;
  // The original definition as written.
  ExprRef expr;
  // Base relations joined, in join order. Each base occurs at most once
  // (self-joins would need rename support, which the paper excludes).
  std::vector<std::string> bases;
  // Z: the visible attributes. Equal to the full join schema for SJ views.
  AttrSet attrs;
  // P: conjunction of all selection conditions (True when absent).
  PredicateRef predicate;
  // True if the final projection keeps every attribute (an "SJ view",
  // Theorem 2.1's minimality case).
  bool is_sj = false;

  bool InvolvesBase(const std::string& base) const;
};

// One place where a view's expression leaves the PSJ normal form, or, in a
// well-formed join, names an attribute that no joined base provides.
struct PsjViolation {
  enum class Kind {
    kUnknownBase,                // a name that is not a base relation of D
    kRepeatedBase,               // a base joined a second time (a self-join)
    kProjectionBelowJoin,        // a projection inside the join tree
    kNonPsjOperator,             // union, difference, rename or empty
    kUnknownProjectedAttribute,  // `attr` of the outermost projection
    kUnknownSelectedAttribute,   // `attr` of the selection `node`
  };
  Kind kind;
  ExprRef node;
  std::string attr;  // Set for the two attribute kinds only.
};

// Everything one walk over a view's expression finds. It is the only PSJ
// recogniser: the complement construction reads `psj`, and the linter
// reads the rest to report every violation with its source position.
struct PsjWalk {
  // In walk order: the project/select prefix, then the join tree left to
  // right. Below a non-PSJ operator only unknown names are recorded. Only
  // a join tree without these is checked for unknown attributes: first the
  // projection's (sorted), then each selection's (pre-order, each sorted).
  std::vector<PsjViolation> violations;
  // The outermost projection of the prefix (it determines Z), or null.
  ExprRef projection;
  // Projections of the prefix below the outermost one; they have no effect.
  std::vector<ExprRef> shadowed_projections;
  // Whether `projection` keeps every attribute of a well-formed join, and
  // so has no effect.
  bool projection_keeps_join = false;
  // Every selection node of the expression, in pre-order, including those
  // below a non-PSJ operator.
  std::vector<ExprRef> selections;
  // The decomposition when there is no violation. Otherwise empty, and
  // `status` describes the first one (of unknown selected attributes, the
  // least).
  std::optional<PsjView> psj;
  Status status;
};

// Walks `view` once against `catalog`, recording every violation rather
// than stopping at the first.
PsjWalk WalkPsj(const ViewDef& view, const Catalog& catalog);

// Validates and decomposes `view` against `catalog`. Fails if the expression
// uses operators outside PSJ (union, difference, rename), references unknown
// relations, joins a base twice, or nests projections under joins.
Result<PsjView> AnalyzePsj(const ViewDef& view, const Catalog& catalog);

// Convenience: analyzes all views, failing on the first offender.
Result<std::vector<PsjView>> AnalyzeAllPsj(const std::vector<ViewDef>& views,
                                           const Catalog& catalog);

// The paper's pi_{R}(V) convention: the projection of `source` (an
// expression whose output attributes are `source_attrs`) onto the schema of
// base relation `rel_schema` if all its attributes are visible, and the
// empty relation over that schema otherwise. Projection order follows
// `rel_schema`.
ExprRef ProjectOntoSchema(const ExprRef& source, const AttrSet& source_attrs,
                          const Schema& rel_schema);

}  // namespace dwc

#endif  // DWC_CORE_PSJ_H_
