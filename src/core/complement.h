#ifndef DWC_CORE_COMPLEMENT_H_
#define DWC_CORE_COMPLEMENT_H_

#include <map>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "algebra/view.h"
#include "core/psj.h"
#include "relational/catalog.h"
#include "util/result.h"

namespace dwc {

// Options for ComputeComplement().
struct ComplementOptions {
  // When false, keys and inclusion dependencies are ignored and the result
  // is exactly Proposition 2.2 (one complement per base, no covers). When
  // true, Theorem 2.2 applies.
  bool use_constraints = true;
  // Cap on the number of covers enumerated per base relation.
  size_t max_covers = 256;
  // Complement view names are prefix + base name.
  std::string name_prefix = "C_";
};

// Everything the construction derives for one base relation R_i.
struct BaseComplementInfo {
  std::string base;
  std::string complement_name;
  // Defining expression of C_i over {base relations} ∪ {view names}:
  //   C_i = R_i \ (R̂_i ∪ R̂_i^ir)          (Equation (3); Equation (1) when
  //                                         constraints are off)
  // An Empty node when the complement is provably always empty.
  ExprRef complement_def;
  // True when static analysis shows C_i = ∅ for every database state
  // (lossless key covers, or total joins guaranteed by referential
  // integrity — Examples 2.3 and 2.4).
  bool provably_empty = false;
  // R̂_i over view names (Empty node when no view exposes all of attr(R_i)).
  ExprRef rhat;
  // R̂_i^ir over {view names} ∪ {base names} (Empty when no covers). Base
  // references come from inclusion-dependency candidates.
  ExprRef rhat_ir;
  // Human-readable covers, e.g. {"V3", "project[A, B](R3)"}.
  std::vector<std::vector<std::string>> cover_labels;
  // Reconstruction of R_i over warehouse names only (Equation (2)/(4)):
  //   R_i = C_i ∪ R̂_i ∪ R̂_i^ir   with IND base references replaced by the
  // referenced relation's own inverse (acyclicity makes this well-founded).
  ExprRef inverse;
};

// The complement C of a warehouse V, per Proposition 2.2 / Theorem 2.2.
struct ComplementResult {
  // Per base relation, in IND-topological order.
  std::vector<BaseComplementInfo> per_base;
  // The complement views to materialize (provably empty ones are omitted;
  // the inverse expressions already account for them).
  std::vector<ViewDef> complements;
  // base relation name -> reconstruction expression over warehouse names.
  std::map<std::string, ExprRef> inverses;
  // The views V in PSJ normal form, in definition order, as the
  // construction analysed them.
  std::vector<PsjView> views;

  const BaseComplementInfo* FindBase(const std::string& base) const;
};

// Computes a complement of `views` (PSJ views over `catalog`) together with
// the inverse mapping W^-1. This is Step 1 of the Section 5 algorithm.
Result<ComplementResult> ComputeComplement(const std::vector<ViewDef>& views,
                                           const Catalog& catalog,
                                           const ComplementOptions& options =
                                               ComplementOptions());

}  // namespace dwc

#endif  // DWC_CORE_COMPLEMENT_H_
