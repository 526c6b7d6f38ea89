// E13 (DESIGN.md) — Section 5: star-schema warehouses. Dimension copies plus
// foreign-key constraints make every fact-view complement empty, and the
// warehouse maintains itself under fact appends without source queries.

#include <gtest/gtest.h>

#include "core/query_translation.h"
#include "core/warehouse_spec.h"
#include "maintenance/plan.h"
#include "parser/parser.h"
#include "testing/test_util.h"
#include "warehouse/warehouse.h"
#include "workload/star_schema.h"

namespace dwc {
namespace {

class StarSchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StarSchemaConfig config;
    config.customers = 20;
    config.suppliers = 8;
    config.parts = 30;
    config.locations = 5;
    config.orders = 60;
    config.sales = 150;
    Result<StarSchema> star = BuildStarSchema(config);
    DWC_ASSERT_OK(star);
    star_ = std::make_unique<StarSchema>(std::move(star).value());
    Result<WarehouseSpec> spec =
        SpecifyWarehouse(star_->catalog, star_->views);
    DWC_ASSERT_OK(spec);
    spec_ = std::make_shared<WarehouseSpec>(std::move(spec).value());
  }

  std::unique_ptr<StarSchema> star_;
  std::shared_ptr<WarehouseSpec> spec_;
};

TEST_F(StarSchemaTest, AllComplementsEmpty) {
  // Dimensions are copied verbatim; the fact joins are total thanks to the
  // foreign keys: nothing needs to be stored beyond V itself.
  for (const BaseComplementInfo& info : spec_->complement().per_base) {
    EXPECT_TRUE(info.provably_empty) << info.base;
  }
  EXPECT_TRUE(spec_->complements().empty());
}

TEST_F(StarSchemaTest, NoInverseOrMaintenancePlanRepeatsAUnionArm) {
  for (const auto& [base, inverse] : spec_->inverses()) {
    EXPECT_EQ(testing::RepeatedUnionArm(inverse), "")
        << base << "^-1 = " << inverse->ToString();
  }
  Result<MaintenancePlan> plan = DeriveMaintenancePlan(*spec_);
  DWC_ASSERT_OK(plan);
  for (const auto& [relation, per_base] : plan->entries()) {
    for (const auto& [base, pair] : per_base) {
      EXPECT_EQ(testing::RepeatedUnionArm(pair.plus), "")
          << relation << " on +" << base << ": " << pair.plus->ToString();
      EXPECT_EQ(testing::RepeatedUnionArm(pair.minus), "")
          << relation << " on -" << base << ": " << pair.minus->ToString();
    }
  }
}

TEST_F(StarSchemaTest, LoadsAndReconstructs) {
  Result<Warehouse> warehouse = Warehouse::Load(spec_, star_->db);
  DWC_ASSERT_OK(warehouse);
  Result<Database> reconstructed = warehouse->ReconstructSources();
  DWC_ASSERT_OK(reconstructed);
  EXPECT_TRUE(reconstructed->SameStateAs(star_->db));
}

TEST_F(StarSchemaTest, SalesAppendsMaintainedLocally) {
  Source source(star_->db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);

  Rng rng(7);
  for (int batch = 0; batch < 5; ++batch) {
    Result<UpdateOp> op = GenerateSalesBatch(source.db(), 10, &rng);
    DWC_ASSERT_OK(op);
    ASSERT_EQ(op->inserts.size(), 10u);
    Result<CanonicalDelta> delta = source.Apply(*op);
    DWC_ASSERT_OK(delta);
    DWC_ASSERT_OK(source.db().ValidateConstraints());
    DWC_ASSERT_OK(warehouse->Integrate(*delta));
  }
  EXPECT_EQ(source.query_count(), 0u);
  DWC_ASSERT_OK(CheckConsistency(*warehouse, source.db()));
  EXPECT_EQ(warehouse->FindRelation("FactSales")->size(),
            source.db().FindRelation("Sales")->size());
}

TEST_F(StarSchemaTest, DimensionUpdatesPropagateToFacts) {
  Source source(star_->db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);

  // A new customer places an order referencing a new location.
  UpdateOp new_cust{"Customer",
                    {testing::T({testing::I(1000), testing::S("acme"),
                                 testing::S("emea")})},
                    {}};
  Result<CanonicalDelta> d1 = source.Apply(new_cust);
  DWC_ASSERT_OK(d1);
  DWC_ASSERT_OK(warehouse->Integrate(*d1));

  UpdateOp new_order{"Orders",
                     {testing::T({testing::I(5000), testing::I(1000),
                                  testing::I(0), testing::I(6)})},
                     {}};
  Result<CanonicalDelta> d2 = source.Apply(new_order);
  DWC_ASSERT_OK(d2);
  DWC_ASSERT_OK(warehouse->Integrate(*d2));

  DWC_ASSERT_OK(CheckConsistency(*warehouse, source.db()));
  EXPECT_EQ(source.query_count(), 0u);

  // OLAP-ish query answered at the warehouse: customers in emea with orders
  // in month 6.
  Result<ExprRef> q = ParseExpr(
      "project[cust_name](select[cust_region = 'emea' and order_month = 6]"
      "(Orders JOIN Customer))");
  DWC_ASSERT_OK(q);
  Result<Relation> answer = warehouse->AnswerQuery(*q);
  DWC_ASSERT_OK(answer);
  Relation expected_contains(answer->schema());
  expected_contains.Insert(testing::T({testing::S("acme")}));
  EXPECT_TRUE(answer->Contains(testing::T({testing::S("acme")})));
}

TEST_F(StarSchemaTest, MaintenancePlanIsBaseFree) {
  Result<MaintenancePlan> plan = DeriveMaintenancePlan(*spec_);
  DWC_ASSERT_OK(plan);
  for (const auto& [relation, per_base] : plan->entries()) {
    for (const auto& [base, delta] : per_base) {
      for (const ExprRef& expr : {delta.plus, delta.minus}) {
        for (const std::string& name : expr->ReferencedNames()) {
          EXPECT_FALSE(spec_->catalog().HasRelation(name))
              << relation << "/" << base << " references base " << name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dwc
