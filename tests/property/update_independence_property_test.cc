// E10 (DESIGN.md) — Theorem 4.1 / Figure 3: the update commuting diagram
// w' = W(u(d)) holds under random update streams, with zero source queries,
// and the three maintenance strategies agree. Integrate(d) is the one-delta
// case of IntegrateTransaction({d}): the two entry points reach the same
// states and epochs through the same plan-table entries.

#include <gtest/gtest.h>

#include "core/warehouse_spec.h"
#include "testing/property_util.h"
#include "testing/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "warehouse/warehouse.h"
#include "workload/random_db.h"
#include "workload/random_views.h"
#include "workload/update_stream.h"

namespace dwc {
namespace {

using ::dwc::testing::CatalogShape;
using ::dwc::testing::CatalogShapeName;
using ::dwc::testing::MakeCatalog;

// Expects the two plans to hold the same entries as the same interned
// nodes, pointer for pointer.
void ExpectSamePlanNodes(const MaintenancePlan& a, const MaintenancePlan& b) {
  ASSERT_EQ(a.entries().size(), b.entries().size());
  for (const auto& [relation, per_base] : a.entries()) {
    for (const auto& [base, pair] : per_base) {
      const DeltaPair* other = b.Find(relation, base);
      ASSERT_NE(other, nullptr) << relation << " on " << base;
      EXPECT_EQ(pair.plus.get(), other->plus.get()) << relation << " " << base;
      EXPECT_EQ(pair.minus.get(), other->minus.get())
          << relation << " " << base;
    }
  }
}

class UpdateIndependencePropertyTest
    : public ::testing::TestWithParam<CatalogShape> {};

TEST_P(UpdateIndependencePropertyTest, StreamsStayConsistent) {
  Rng rng(5150 + static_cast<uint64_t>(GetParam()));
  std::shared_ptr<Catalog> catalog = MakeCatalog(GetParam());
  std::vector<std::string> relations = catalog->RelationNames();

  for (int round = 0; round < 5; ++round) {
    Result<std::vector<ViewDef>> views =
        GenerateRandomPsjViews(*catalog, &rng);
    DWC_ASSERT_OK(views);
    Result<WarehouseSpec> spec = SpecifyWarehouse(catalog, *views);
    DWC_ASSERT_OK(spec);
    auto spec_ptr = std::make_shared<WarehouseSpec>(std::move(spec).value());

    Result<Database> db = GenerateRandomDatabase(catalog, &rng);
    DWC_ASSERT_OK(db);
    Source source(*db);
    Result<Warehouse> incremental = Warehouse::Load(
        spec_ptr, source.db(), MaintenanceStrategy::kIncremental);
    Result<Warehouse> recompute = Warehouse::Load(
        spec_ptr, source.db(), MaintenanceStrategy::kRecomputeFromInverse);
    // Fed the same deltas, each as a one-delta transaction.
    Result<Warehouse> transactional = Warehouse::Load(
        spec_ptr, source.db(), MaintenanceStrategy::kIncremental);
    DWC_ASSERT_OK(incremental);
    DWC_ASSERT_OK(recompute);
    DWC_ASSERT_OK(transactional);
    const MaintenancePlan loaded = incremental->plan();
    ExpectSamePlanNodes(loaded, transactional->plan());

    for (int step = 0; step < 20; ++step) {
      const std::string& relation =
          relations[rng.Below(relations.size())];
      Result<UpdateOp> op =
          GenerateRandomUpdate(source.db(), relation, &rng);
      DWC_ASSERT_OK(op);
      Result<CanonicalDelta> delta = source.Apply(*op);
      DWC_ASSERT_OK(delta);
      // Source state must stay constraint-consistent (update generator
      // contract).
      DWC_ASSERT_OK(source.db().ValidateConstraints());
      if (delta->empty()) {
        continue;
      }
      DWC_ASSERT_OK(incremental->Integrate(*delta));
      DWC_ASSERT_OK(recompute->Integrate(*delta));
      DWC_ASSERT_OK(transactional->IntegrateTransaction({*delta}));
      EXPECT_EQ(StateDigest(incremental->state()).Combined(),
                StateDigest(transactional->state()).Combined());
      EXPECT_EQ(incremental->current_epoch(), transactional->current_epoch());
      // The same plan entries ran: the evaluators did the same work.
      const EvalStats one = incremental->last_integrate_stats();
      const EvalStats txn = transactional->last_integrate_stats();
      EXPECT_EQ(one.joins, txn.joins);
      EXPECT_EQ(one.differences, txn.differences);
      EXPECT_EQ(one.index_probes, txn.index_probes);

      // Figure 3: the maintained state equals W(u(d)).
      DWC_ASSERT_OK(CheckConsistency(*incremental, source.db()));
      ASSERT_TRUE(incremental->state().SameStateAs(recompute->state()))
          << "step " << step << "\n"
          << spec_ptr->ToString();
    }
    // Both entry points kept reading the single-base entries Load interned.
    ExpectSamePlanNodes(loaded, incremental->plan());
    ExpectSamePlanNodes(loaded, transactional->plan());
    // Update independence: zero queries against the source.
    EXPECT_EQ(source.query_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UpdateIndependencePropertyTest,
    ::testing::Values(CatalogShape::kChain, CatalogShape::kKeyed,
                      CatalogShape::kKeyedInds),
    [](const ::testing::TestParamInfo<CatalogShape>& info) {
      return CatalogShapeName(info.param);
    });

TEST(QuerySourceBaselineTest, CountsSourceQueries) {
  // The traditional integrator *does* query the sources: the counter is the
  // discriminating observable between the paper's approach and the baseline.
  Rng rng(31337);
  std::shared_ptr<Catalog> catalog = MakeCatalog(CatalogShape::kChain);
  Result<std::vector<ViewDef>> views = GenerateRandomPsjViews(*catalog, &rng);
  DWC_ASSERT_OK(views);
  Result<WarehouseSpec> spec = SpecifyWarehouse(catalog, *views);
  DWC_ASSERT_OK(spec);
  auto spec_ptr = std::make_shared<WarehouseSpec>(std::move(spec).value());
  Result<Database> db = GenerateRandomDatabase(catalog, &rng);
  DWC_ASSERT_OK(db);
  Source source(*db);
  Result<Warehouse> baseline = Warehouse::Load(
      spec_ptr, source.db(), MaintenanceStrategy::kQuerySource);
  DWC_ASSERT_OK(baseline);

  Result<UpdateOp> op = GenerateRandomUpdate(source.db(), "R", &rng);
  DWC_ASSERT_OK(op);
  Result<CanonicalDelta> delta = source.Apply(*op);
  DWC_ASSERT_OK(delta);
  DWC_ASSERT_OK(baseline->Integrate(*delta, &source));
  EXPECT_GT(source.query_count(), 0u);
  DWC_ASSERT_OK(CheckConsistency(*baseline, source.db()));
}

}  // namespace
}  // namespace dwc
