#ifndef DWC_MAINTENANCE_PLAN_H_
#define DWC_MAINTENANCE_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "algebra/view.h"
#include "core/warehouse_spec.h"
#include "maintenance/delta.h"
#include "util/result.h"

namespace dwc {

// Precomputed incremental maintenance expressions for a warehouse
// (Section 4 / Section 5 Step 3): for every warehouse relation w and every
// base relation b, expressions computing Δ+w and Δ-w from
//   * the *old* warehouse state (views and complements), and
//   * the reported update (bound as "ins:b" / "del:b"),
// and nothing else — in particular no base relations, which is the paper's
// update-independence property. DeriveMaintenancePlan verifies this
// syntactically; tests/property verifies it dynamically with a query-counting
// source.
class MaintenancePlan {
 public:
  void Set(const std::string& warehouse_relation, const std::string& base,
           DeltaPair delta);

  // nullptr if no entry (e.g. the warehouse relation never changes under
  // updates to `base`).
  const DeltaPair* Find(const std::string& warehouse_relation,
                        const std::string& base) const;

  const std::map<std::string, std::map<std::string, DeltaPair>>& entries()
      const {
    return plans_;
  }

  // Multi-line listing of all maintenance expressions.
  std::string ToString() const;

 private:
  // warehouse relation -> updated base -> deltas.
  std::map<std::string, std::map<std::string, DeltaPair>> plans_;
};

// Derives the full plan for `spec`. Every expression in the result
// references only warehouse relation names and delta names.
//
// Derivation per (w, b): expand w's definition over base relations, apply
// exact delta rules (maintenance/delta.h), fold subtrees that equal a
// materialized warehouse relation's definition back to that relation's name
// (so the old view state is reused rather than recomputed — Example 4.1's
// shape), substitute W^-1 for remaining base references, and simplify.
Result<MaintenancePlan> DeriveMaintenancePlan(const WarehouseSpec& spec);

// Transaction variant: maintenance expressions for a *simultaneous* update
// of all base relations in `bases` (deltas bound as ins:/del: per base).
// Returns one DeltaPair per affected warehouse relation. Used by
// Warehouse::IntegrateTransaction for atomic multi-relation updates.
Result<std::map<std::string, DeltaPair>> DeriveTransactionPlan(
    const WarehouseSpec& spec, const std::set<std::string>& bases);

// The Section 4 closing remark: a warehouse consisting solely of
// selection-only views sigma_p(B) is update-independent *without* any
// complement. Returns the direct plan (Δ+V = sigma_p(ins:B),
// Δ-V = sigma_p(del:B)); fails with FailedPrecondition if some view is not
// selection-only.
Result<MaintenancePlan> DeriveSelectionOnlyPlan(
    const std::vector<ViewDef>& views, const Catalog& catalog);

}  // namespace dwc

#endif  // DWC_MAINTENANCE_PLAN_H_
