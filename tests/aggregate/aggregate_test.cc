// Section 5 OLAP layer: summary tables over warehouse fact views,
// maintained incrementally from exact source deltas. Differentially tested
// against from-scratch re-aggregation across random update streams.

#include "aggregate/aggregate_view.h"

#include <gtest/gtest.h>

#include "core/warehouse_spec.h"
#include "testing/test_util.h"
#include "util/rng.h"
#include "warehouse/warehouse.h"
#include "workload/star_schema.h"
#include "workload/update_stream.h"

namespace dwc {
namespace {

using ::dwc::testing::D;
using ::dwc::testing::I;
using ::dwc::testing::MustRun;
using ::dwc::testing::S;
using ::dwc::testing::T;

// --- Unit-level tests against a tiny hand-checked relation.

class AggregateUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rel_ = Relation(Schema({{"g", ValueType::kString},
                            {"v", ValueType::kInt}}));
    rel_.Insert(T({S("a"), I(1)}));
    rel_.Insert(T({S("a"), I(5)}));
    rel_.Insert(T({S("b"), I(7)}));
    env_.Bind("F", &rel_);
    AggregateViewDef def;
    def.name = "Agg";
    def.source = Expr::Base("F");
    def.group_by = {"g"};
    def.aggregates = {{AggFunc::kCount, "", "n"},
                      {AggFunc::kSum, "v", "total"},
                      {AggFunc::kMin, "v", "lo"},
                      {AggFunc::kMax, "v", "hi"}};
    SchemaResolver resolver = [this](const std::string& name) {
      return name == "F" ? &rel_.schema() : nullptr;
    };
    Result<AggregateView> view = AggregateView::Create(def, resolver);
    DWC_ASSERT_OK(view);
    view_ = std::make_unique<AggregateView>(std::move(view).value());
    DWC_ASSERT_OK(view_->Initialize(env_));
  }

  // Applies (plus, minus) to both the base relation and the view.
  void Apply(std::vector<Tuple> plus, std::vector<Tuple> minus) {
    Relation plus_rel(rel_.schema());
    Relation minus_rel(rel_.schema());
    for (Tuple& tuple : minus) {
      EXPECT_TRUE(rel_.Erase(tuple));
      minus_rel.Insert(std::move(tuple));
    }
    for (Tuple& tuple : plus) {
      EXPECT_TRUE(rel_.Insert(tuple));
      plus_rel.Insert(std::move(tuple));
    }
    DWC_ASSERT_OK(view_->ApplyDelta(plus_rel, minus_rel));
  }

  Tuple Row(const char* group) {
    const Relation::Index& index = view_->materialized().GetIndex({"g"});
    auto it = index.find(T({S(group)}));
    EXPECT_NE(it, index.end()) << "no group " << group;
    return *it->second.front();
  }

  Relation rel_{Schema(std::vector<Attribute>{})};
  Environment env_;
  std::unique_ptr<AggregateView> view_;
};

TEST_F(AggregateUnitTest, InitializeFoldsAllGroups) {
  EXPECT_EQ(view_->schema().ToString(),
            "(g STRING, n INT, total INT, lo INT, hi INT)");
  EXPECT_EQ(view_->materialized().size(), 2u);
  EXPECT_EQ(Row("a"), T({S("a"), I(2), I(6), I(1), I(5)}));
  EXPECT_EQ(Row("b"), T({S("b"), I(1), I(7), I(7), I(7)}));
}

TEST_F(AggregateUnitTest, InsertUpdatesAllAggregates) {
  Apply({T({S("a"), I(10)})}, {});
  EXPECT_EQ(Row("a"), T({S("a"), I(3), I(16), I(1), I(10)}));
}

TEST_F(AggregateUnitTest, NewGroupAppears) {
  Apply({T({S("c"), I(-2)})}, {});
  EXPECT_EQ(view_->materialized().size(), 3u);
  EXPECT_EQ(Row("c"), T({S("c"), I(1), I(-2), I(-2), I(-2)}));
}

TEST_F(AggregateUnitTest, DeleteOfNonExtremumIsLocal) {
  Apply({T({S("a"), I(3)})}, {});           // a: {1,3,5}
  Apply({}, {T({S("a"), I(3)})});           // back to {1,5}
  EXPECT_EQ(Row("a"), T({S("a"), I(2), I(6), I(1), I(5)}));
}

TEST_F(AggregateUnitTest, DeleteOfExtremumFallsBackToNextCountedValue) {
  Apply({}, {T({S("a"), I(5)})});           // max deleted
  EXPECT_EQ(Row("a"), T({S("a"), I(1), I(1), I(1), I(1)}));
  Apply({}, {T({S("a"), I(1)})});           // group vanishes
  EXPECT_EQ(view_->materialized().size(), 1u);
}

TEST_F(AggregateUnitTest, GroupDisappearsAndReappears) {
  Apply({}, {T({S("b"), I(7)})});
  EXPECT_EQ(view_->materialized().size(), 1u);
  Apply({T({S("b"), I(2)})}, {});
  EXPECT_EQ(Row("b"), T({S("b"), I(1), I(2), I(2), I(2)}));
}

TEST_F(AggregateUnitTest, MixedBatch) {
  // Delete an extremum and insert new tuples in the same delta.
  Apply({T({S("a"), I(9)}), T({S("b"), I(1)})}, {T({S("a"), I(5)})});
  EXPECT_EQ(Row("a"), T({S("a"), I(2), I(10), I(1), I(9)}));
  EXPECT_EQ(Row("b"), T({S("b"), I(2), I(8), I(1), I(7)}));
}

TEST(AggregateCreateTest, Validation) {
  Schema schema({{"g", ValueType::kString}, {"v", ValueType::kString}});
  SchemaResolver resolver = [&schema](const std::string& name) {
    return name == "F" ? &schema : nullptr;
  };
  AggregateViewDef def;
  def.name = "A";
  def.source = Expr::Base("F");
  def.group_by = {"g"};
  def.aggregates = {{AggFunc::kSum, "v", "s"}};
  // SUM over a string attribute.
  EXPECT_FALSE(AggregateView::Create(def, resolver).ok());
  // Unknown group-by attribute.
  def.aggregates = {{AggFunc::kCount, "", "n"}};
  def.group_by = {"zz"};
  EXPECT_FALSE(AggregateView::Create(def, resolver).ok());
  // Empty group-by.
  def.group_by = {};
  EXPECT_FALSE(AggregateView::Create(def, resolver).ok());
  // COUNT with an attribute.
  def.group_by = {"g"};
  def.aggregates = {{AggFunc::kCount, "v", "n"}};
  EXPECT_FALSE(AggregateView::Create(def, resolver).ok());
  // Valid: MIN over a string is fine (lexicographic).
  def.aggregates = {{AggFunc::kMin, "v", "first"}};
  DWC_EXPECT_OK(AggregateView::Create(def, resolver));
}

// --- Warehouse integration: differential test on the star schema.

TEST(AggregateWarehouseTest, MaintainedAcrossStreamsMatchesRecompute) {
  StarSchemaConfig config;
  config.customers = 20;
  config.suppliers = 8;
  config.parts = 30;
  config.locations = 5;
  config.orders = 80;
  config.sales = 300;
  Result<StarSchema> star = BuildStarSchema(config);
  DWC_ASSERT_OK(star);
  auto spec = std::make_shared<WarehouseSpec>(
      *SpecifyWarehouse(star->catalog, star->views));
  Source source(star->db);
  Result<Warehouse> warehouse = Warehouse::Load(spec, source.db());
  DWC_ASSERT_OK(warehouse);

  // Revenue-ish summary per supplier region.
  AggregateViewDef def;
  def.name = "SalesByRegion";
  def.source = Expr::Base("FactSales");
  def.group_by = {"supp_region"};
  def.aggregates = {{AggFunc::kCount, "", "n_sales"},
                    {AggFunc::kSum, "quantity", "units"},
                    {AggFunc::kMax, "quantity", "biggest"}};
  DWC_ASSERT_OK(warehouse->AddAggregateView(def));

  auto expected = [&]() -> Relation {
    // Fresh re-aggregation from the current warehouse state.
    SchemaResolver resolver = spec->WarehouseResolver();
    Result<AggregateView> fresh = AggregateView::Create(def, resolver);
    EXPECT_TRUE(fresh.ok());
    Environment env = Environment::FromDatabase(warehouse->state());
    EXPECT_TRUE(fresh->Initialize(env).ok());
    return fresh->materialized();
  };

  Rng rng(99);
  for (int step = 0; step < 25; ++step) {
    UpdateStreamOptions options;
    options.max_inserts = 4;
    options.max_deletes = 3;
    options.db_options.int_domain = 4096;
    Result<UpdateOp> op =
        GenerateRandomUpdate(source.db(), "Sales", &rng, options);
    DWC_ASSERT_OK(op);
    Result<CanonicalDelta> delta = source.Apply(*op);
    DWC_ASSERT_OK(delta);
    DWC_ASSERT_OK(warehouse->Integrate(*delta));
    const AggregateView* agg = warehouse->FindAggregate("SalesByRegion");
    ASSERT_NE(agg, nullptr);
    ASSERT_TRUE(testing::RelationsEqual(agg->materialized(), expected()))
        << "step " << step;
  }
  EXPECT_EQ(source.query_count(), 0u);
}

TEST(AggregateWarehouseTest, QueriesSeeAggregates) {
  ScriptContext context = MustRun(testing::Figure1Script(true));
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

  Result<ExprRef> q = ParseExpr("select[n >= 2](SalesPerClerk)");
  DWC_ASSERT_OK(q);
  Result<Relation> answer = warehouse->AnswerQuery(*q);
  DWC_ASSERT_OK(answer);
  ASSERT_EQ(answer->size(), 1u);
  EXPECT_EQ(answer->SortedTuples()[0], T({S("Mary"), I(2)}));

  // Aggregates can even join with translated base queries.
  Result<ExprRef> q2 =
      ParseExpr("project[clerk, age, n](SalesPerClerk join Emp)");
  DWC_ASSERT_OK(q2);
  Result<Relation> joined = warehouse->AnswerQuery(*q2);
  DWC_ASSERT_OK(joined);
  EXPECT_EQ(joined->size(), 2u);  // Mary and John sell; Paula does not.
}

TEST(AggregateWarehouseTest, NameCollisionsRejected) {
  ScriptContext context = MustRun(testing::Figure1Script(true));
  auto spec = std::make_shared<WarehouseSpec>(
      *SpecifyWarehouse(context.catalog, context.views));
  Result<Warehouse> warehouse = Warehouse::Load(spec, context.db);
  DWC_ASSERT_OK(warehouse);
  AggregateViewDef def;
  def.name = "Sold";  // Collides with a warehouse view.
  def.source = Expr::Base("Sold");
  def.group_by = {"clerk"};
  def.aggregates = {{AggFunc::kCount, "", "n"}};
  EXPECT_EQ(warehouse->AddAggregateView(def).code(),
            StatusCode::kAlreadyExists);
  // Sources must be warehouse relations, not base relations.
  def.name = "Agg";
  def.source = Expr::Base("Sale");
  EXPECT_EQ(warehouse->AddAggregateView(def).code(),
            StatusCode::kInvalidArgument);
}

TEST(AggregateWarehouseTest, RecomputeStrategyReinitializes) {
  ScriptContext context = MustRun(testing::Figure1Script(true));
  auto spec = std::make_shared<WarehouseSpec>(
      *SpecifyWarehouse(context.catalog, context.views));
  Source source(context.db);
  Result<Warehouse> warehouse = Warehouse::Load(
      spec, source.db(), MaintenanceStrategy::kRecomputeFromInverse);
  DWC_ASSERT_OK(warehouse);
  AggregateViewDef def;
  def.name = "SalesPerClerk";
  def.source = Expr::Base("Sold");
  def.group_by = {"clerk"};
  def.aggregates = {{AggFunc::kCount, "", "n"}};
  DWC_ASSERT_OK(warehouse->AddAggregateView(def));

  UpdateOp op{"Sale", {T({S("Radio"), S("Mary")})}, {}};
  Result<CanonicalDelta> delta = source.Apply(op);
  DWC_ASSERT_OK(delta);
  DWC_ASSERT_OK(warehouse->Integrate(*delta));
  const AggregateView* agg = warehouse->FindAggregate("SalesPerClerk");
  ASSERT_NE(agg, nullptr);
  EXPECT_TRUE(agg->materialized().Contains(T({S("Mary"), I(3)})));
}


TEST(AggregateWarehouseTest, SummaryOverJoinExpressionMaintained) {
  // The aggregate source can be any expression over warehouse relations,
  // not just one fact view: deltas are derived through the same rules.
  ScriptContext context = MustRun(R"(
CREATE TABLE Emp(clerk STRING, age INT, KEY(clerk));
CREATE TABLE Sale(item STRING, clerk STRING);
INSERT INTO Emp VALUES ('Mary', 23), ('John', 45);
INSERT INTO Sale VALUES ('TV', 'Mary'), ('PC', 'Mary'), ('Desk', 'John');
VIEW Items AS Sale;
VIEW Staff AS Emp;
)");
  auto spec = std::make_shared<WarehouseSpec>(
      *SpecifyWarehouse(context.catalog, context.views));
  Source source(context.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec, source.db());
  DWC_ASSERT_OK(warehouse);

  AggregateViewDef def;
  def.name = "SalesByAge";
  def.source = Expr::Join(Expr::Base("Items"), Expr::Base("Staff"));
  def.group_by = {"age"};
  def.aggregates = {{AggFunc::kCount, "", "n"}};
  DWC_ASSERT_OK(warehouse->AddAggregateView(def));
  const AggregateView* agg = warehouse->FindAggregate("SalesByAge");
  ASSERT_NE(agg, nullptr);
  EXPECT_TRUE(agg->materialized().Contains(T({I(23), I(2)})));
  EXPECT_TRUE(agg->materialized().Contains(T({I(45), I(1)})));

  // Updates to either base propagate through the join-shaped source.
  Rng rng(5);
  std::vector<UpdateOp> updates = {
      {"Sale", {T({S("Lamp"), S("John")})}, {}},
      {"Emp", {T({S("Zoe"), I(23)})}, {}},
      {"Sale", {T({S("Pen"), S("Zoe")})}, {T({S("TV"), S("Mary")})}},
      {"Emp", {}, {T({S("John"), I(45)})}},
  };
  for (const UpdateOp& op : updates) {
    // Deleting John orphans his sales at the join level, which is exactly
    // what the delta rules must handle.
    if (op.relation == "Emp" && !op.deletes.empty()) {
      UpdateOp cascade{"Sale", {}, {T({S("Desk"), S("John")}),
                                    T({S("Lamp"), S("John")})}};
      Result<CanonicalDelta> cd = source.Apply(cascade);
      DWC_ASSERT_OK(cd);
      DWC_ASSERT_OK(warehouse->Integrate(*cd));
    }
    Result<CanonicalDelta> delta = source.Apply(op);
    DWC_ASSERT_OK(delta);
    DWC_ASSERT_OK(warehouse->Integrate(*delta));

    // Differential check against fresh re-aggregation.
    SchemaResolver resolver = spec->WarehouseResolver();
    Result<AggregateView> fresh = AggregateView::Create(def, resolver);
    DWC_ASSERT_OK(fresh);
    Environment env = Environment::FromDatabase(warehouse->state());
    DWC_ASSERT_OK(fresh->Initialize(env));
    ASSERT_TRUE(testing::RelationsEqual(
        warehouse->FindAggregate("SalesByAge")->materialized(),
        fresh->materialized()));
  }
  EXPECT_EQ(source.query_count(), 0u);
}

TEST(AggregateWarehouseTest, DoubleSumAccumulates) {
  ScriptContext context = MustRun(R"(
CREATE TABLE M(g STRING, w DOUBLE);
INSERT INTO M VALUES ('a', 1.5), ('a', 2.25), ('b', 0.5);
VIEW V AS M;
)");
  auto spec = std::make_shared<WarehouseSpec>(
      *SpecifyWarehouse(context.catalog, context.views));
  Source source(context.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec, source.db());
  DWC_ASSERT_OK(warehouse);
  AggregateViewDef def;
  def.name = "W";
  def.source = Expr::Base("V");
  def.group_by = {"g"};
  def.aggregates = {{AggFunc::kSum, "w", "total"}};
  DWC_ASSERT_OK(warehouse->AddAggregateView(def));
  EXPECT_TRUE(warehouse->FindAggregate("W")->materialized().Contains(
      T({S("a"), D(3.75)})));
  UpdateOp op{"M", {T({S("a"), D(0.25)})}, {T({S("a"), D(1.5)})}};
  Result<CanonicalDelta> delta = source.Apply(op);
  DWC_ASSERT_OK(delta);
  DWC_ASSERT_OK(warehouse->Integrate(*delta));
  EXPECT_TRUE(warehouse->FindAggregate("W")->materialized().Contains(
      T({S("a"), D(2.5)})));
}

}  // namespace
}  // namespace dwc
