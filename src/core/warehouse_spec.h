#ifndef DWC_CORE_WAREHOUSE_SPEC_H_
#define DWC_CORE_WAREHOUSE_SPEC_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/interner.h"
#include "algebra/schema_inference.h"
#include "algebra/view.h"
#include "core/complement.h"
#include "relational/catalog.h"
#include "util/result.h"

namespace dwc {

// π_on(left) ∩ π_on(right) = ∅ in every warehouse state W(d). `left` is a
// stored complement C_R; `right` is C_S or a view over S (see
// WarehouseSpec::disjoint_facts).
struct DisjointFact {
  std::string left;
  std::string right;
  AttrSet on;
};

// The output of Step 1 of the Section 5 algorithm: a warehouse definition
// W = V ∪ C together with the inverse mapping W^-1 and the schemas of all
// warehouse relations. Query translation (Section 3) and maintenance-plan
// derivation (Section 4) build on this.
class WarehouseSpec {
 public:
  WarehouseSpec(std::shared_ptr<const Catalog> catalog,
                std::vector<ViewDef> views, ComplementResult complement,
                std::map<std::string, Schema> warehouse_schemas);

  const Catalog& catalog() const { return *catalog_; }
  std::shared_ptr<const Catalog> catalog_ptr() const { return catalog_; }

  // The user-defined warehouse views V.
  const std::vector<ViewDef>& views() const { return views_; }
  // The same views in PSJ normal form (bases, visible attributes,
  // conjoined selection), analysed once when the spec was built.
  const std::vector<PsjView>& psj_views() const { return complement_.views; }
  // Disjointness facts the stored complements guarantee, derived once by
  // the dangling rule. For each view V = R ⋈ S with no selection that keeps
  // all of attr(R), with C_R stored and J = attr(R) ∩ attr(S) non-empty:
  // C_R ⊆ R − π_R(V) holds only R tuples with no S partner on J, so
  // π_J(C_R) misses π_J(S), and with it π_J(C_S) (C_S ⊆ S) and π_J(N) for
  // every view N over S that keeps J (N's J columns are S's).
  const std::vector<DisjointFact>& disjoint_facts() const {
    return disjoint_facts_;
  }
  // The computed complement C (provably empty members omitted).
  const std::vector<ViewDef>& complements() const {
    return complement_.complements;
  }
  // V ∪ C: everything the warehouse materializes.
  std::vector<ViewDef> AllWarehouseViews() const;

  const ComplementResult& complement() const { return complement_; }

  // W^-1: base relation name -> expression over warehouse view names.
  const std::map<std::string, ExprRef>& inverses() const {
    return complement_.inverses;
  }
  // nullptr when `base` is not a catalog relation.
  const ExprRef* FindInverse(const std::string& base) const;

  // Schema of a materialized warehouse relation; nullptr if unknown.
  const Schema* FindWarehouseSchema(const std::string& name) const;
  // Resolves warehouse relation names to schemas (for simplification and
  // validation of translated queries).
  SchemaResolver WarehouseResolver() const;

  // The hash-consing interner shared by everything derived from this spec.
  // The constructor runs cross-expression CSE over all view, complement and
  // inverse expressions through it, so the repeated structure the paper's
  // constructions share (each R̂i inside Ci, each W⁻¹ inside every
  // translated query and maintenance expression) becomes literal node
  // sharing; the warehouse then interns maintenance plans and translated
  // queries through the same instance so its subplan cache can recycle
  // results across all of them.
  const std::shared_ptr<ExprInterner>& interner() const { return interner_; }

  std::string ToString() const;

 private:
  std::shared_ptr<const Catalog> catalog_;
  std::vector<ViewDef> views_;
  ComplementResult complement_;
  std::map<std::string, Schema> warehouse_schemas_;
  std::vector<DisjointFact> disjoint_facts_;
  std::shared_ptr<ExprInterner> interner_;
};

// Runs PSJ analysis, complement computation and schema inference, yielding a
// ready-to-use spec. `views` must be PSJ views over `catalog`.
Result<WarehouseSpec> SpecifyWarehouse(std::shared_ptr<const Catalog> catalog,
                                       std::vector<ViewDef> views,
                                       const ComplementOptions& options =
                                           ComplementOptions());

}  // namespace dwc

#endif  // DWC_CORE_WAREHOUSE_SPEC_H_
