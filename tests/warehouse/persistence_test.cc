// Warehouse checkpointing through the DSL: dump, reload, equivalence.

#include "warehouse/persistence.h"

#include <gtest/gtest.h>

#include "core/warehouse_spec.h"
#include "testing/test_util.h"
#include "workload/star_schema.h"

namespace dwc {
namespace {

using ::dwc::testing::Figure1Script;
using ::dwc::testing::MustRun;
using ::dwc::testing::S;
using ::dwc::testing::T;

TEST(PersistenceTest, Figure1RoundTrip) {
  ScriptContext context = MustRun(Figure1Script(/*with_constraints=*/true));
  auto spec = std::make_shared<WarehouseSpec>(
      *SpecifyWarehouse(context.catalog, context.views));
  Source source(context.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec, source.db());
  DWC_ASSERT_OK(warehouse);

  // Mutate, then checkpoint.
  UpdateOp op{"Sale", {T({S("Computer"), S("Paula")})}, {}};
  Result<CanonicalDelta> delta = source.Apply(op);
  DWC_ASSERT_OK(delta);
  DWC_ASSERT_OK(warehouse->Integrate(*delta));

  Result<std::string> script = WarehouseToScript(*warehouse);
  DWC_ASSERT_OK(script);
  Result<RestoredWarehouse> restored = WarehouseFromScript(*script);
  DWC_ASSERT_OK(restored);

  // Same warehouse state, same base state, same inverses.
  EXPECT_TRUE(
      restored->warehouse->state().SameStateAs(warehouse->state()));
  EXPECT_TRUE(restored->source->db().SameStateAs(source.db()));
  DWC_ASSERT_OK(
      CheckConsistency(*restored->warehouse, restored->source->db()));

  // The restored warehouse keeps maintaining.
  UpdateOp more{"Emp", {T({S("Ada"), testing::I(36)})}, {}};
  Result<CanonicalDelta> d2 = restored->source->Apply(more);
  DWC_ASSERT_OK(d2);
  DWC_ASSERT_OK(restored->warehouse->Integrate(*d2));
  DWC_ASSERT_OK(
      CheckConsistency(*restored->warehouse, restored->source->db()));
}

TEST(PersistenceTest, SummariesSurviveCheckpoint) {
  ScriptContext context = MustRun(Figure1Script(true));
  auto spec = std::make_shared<WarehouseSpec>(
      *SpecifyWarehouse(context.catalog, context.views));
  Result<Warehouse> warehouse = Warehouse::Load(spec, context.db);
  DWC_ASSERT_OK(warehouse);
  AggregateViewDef def;
  def.name = "SalesPerClerk";
  def.source = Expr::Base("Sold");
  def.group_by = {"clerk"};
  def.aggregates = {{AggFunc::kCount, "", "n"}};
  DWC_ASSERT_OK(warehouse->AddAggregateView(def));

  Result<std::string> script = WarehouseToScript(*warehouse);
  DWC_ASSERT_OK(script);
  EXPECT_NE(script->find("SUMMARY SalesPerClerk"), std::string::npos);
  Result<RestoredWarehouse> restored = WarehouseFromScript(*script);
  DWC_ASSERT_OK(restored);
  const AggregateView* aggregate =
      restored->warehouse->FindAggregate("SalesPerClerk");
  ASSERT_NE(aggregate, nullptr);
  EXPECT_TRUE(aggregate->materialized().SameContentAs(
      warehouse->FindAggregate("SalesPerClerk")->materialized()));
}

TEST(PersistenceTest, StarSchemaRoundTrip) {
  StarSchemaConfig config;
  config.customers = 10;
  config.suppliers = 5;
  config.parts = 12;
  config.locations = 3;
  config.orders = 30;
  config.sales = 80;
  Result<StarSchema> star = BuildStarSchema(config);
  DWC_ASSERT_OK(star);
  auto spec = std::make_shared<WarehouseSpec>(
      *SpecifyWarehouse(star->catalog, star->views));
  Result<Warehouse> warehouse = Warehouse::Load(spec, star->db);
  DWC_ASSERT_OK(warehouse);
  Result<std::string> script = WarehouseToScript(*warehouse);
  DWC_ASSERT_OK(script);
  Result<RestoredWarehouse> restored = WarehouseFromScript(*script);
  DWC_ASSERT_OK(restored);
  EXPECT_TRUE(restored->warehouse->state().SameStateAs(warehouse->state()));
}

TEST(PersistenceTest, CorruptScriptFailsCleanly) {
  EXPECT_FALSE(WarehouseFromScript("CREATE TABLE;").ok());
  EXPECT_FALSE(WarehouseFromScript("QUERY R;").ok());
  // A script with no views cannot define a warehouse, but is a clean error
  // only at spec time — empty view sets are legal for SpecifyWarehouse, so
  // this should actually succeed with an all-complement warehouse.
  Result<RestoredWarehouse> trivial =
      WarehouseFromScript("CREATE TABLE R(a INT);");
  DWC_EXPECT_OK(trivial);
}

}  // namespace
}  // namespace dwc
