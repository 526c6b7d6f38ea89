#include "warehouse/warehouse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/warehouse_spec.h"
#include "parser/parser.h"
#include "testing/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "warehouse/source.h"

namespace dwc {
namespace {

using ::dwc::testing::Figure1Script;
using ::dwc::testing::I;
using ::dwc::testing::MustRun;
using ::dwc::testing::S;
using ::dwc::testing::T;

class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    context_ = MustRun(Figure1Script(/*with_constraints=*/true));
    Result<WarehouseSpec> spec =
        SpecifyWarehouse(context_.catalog, context_.views);
    DWC_ASSERT_OK(spec);
    spec_ = std::make_shared<WarehouseSpec>(std::move(spec).value());
  }

  ScriptContext context_;
  std::shared_ptr<WarehouseSpec> spec_;
};

TEST_F(WarehouseTest, LoadMaterializesViewsAndComplements) {
  Result<Warehouse> warehouse = Warehouse::Load(spec_, context_.db);
  DWC_ASSERT_OK(warehouse);
  EXPECT_NE(warehouse->FindRelation("Sold"), nullptr);
  EXPECT_NE(warehouse->FindRelation("C_Emp"), nullptr);
  EXPECT_EQ(warehouse->FindRelation("Sold")->size(), 3u);
  EXPECT_EQ(warehouse->FindRelation("Nope"), nullptr);
}

TEST_F(WarehouseTest, NullSpecRejected) {
  Result<Warehouse> warehouse = Warehouse::Load(nullptr, context_.db);
  EXPECT_EQ(warehouse.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WarehouseTest, QuerySourceStrategyNeedsSource) {
  Result<Warehouse> warehouse = Warehouse::Load(
      spec_, context_.db, MaintenanceStrategy::kQuerySource);
  DWC_ASSERT_OK(warehouse);
  CanonicalDelta delta;
  delta.relation = "Sale";
  Status status = warehouse->Integrate(delta, /*source=*/nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(WarehouseTest, AllStrategiesConverge) {
  Source s1(context_.db), s2(context_.db), s3(context_.db);
  Result<Warehouse> w1 =
      Warehouse::Load(spec_, s1.db(), MaintenanceStrategy::kIncremental);
  Result<Warehouse> w2 = Warehouse::Load(
      spec_, s2.db(), MaintenanceStrategy::kRecomputeFromInverse);
  Result<Warehouse> w3 =
      Warehouse::Load(spec_, s3.db(), MaintenanceStrategy::kQuerySource);
  DWC_ASSERT_OK(w1);
  DWC_ASSERT_OK(w2);
  DWC_ASSERT_OK(w3);

  UpdateOp op{"Emp",
              {T({S("Nina"), I(27)})},
              {T({S("Paula"), I(32)})}};
  std::vector<std::pair<Source*, Warehouse*>> pairs = {
      {&s1, &*w1}, {&s2, &*w2}, {&s3, &*w3}};
  for (auto& [source, warehouse] : pairs) {
    Result<CanonicalDelta> delta = source->Apply(op);
    DWC_ASSERT_OK(delta);
    DWC_ASSERT_OK(warehouse->Integrate(*delta, source));
    DWC_ASSERT_OK(CheckConsistency(*warehouse, source->db()));
  }
  EXPECT_TRUE(w1->state().SameStateAs(w2->state()));
  EXPECT_TRUE(w1->state().SameStateAs(w3->state()));
  // Only the query-source baseline touched its source.
  EXPECT_EQ(s1.query_count(), 0u);
  EXPECT_EQ(s2.query_count(), 0u);
  EXPECT_GT(s3.query_count(), 0u);
}

TEST_F(WarehouseTest, StrategyNames) {
  EXPECT_STREQ(MaintenanceStrategyName(MaintenanceStrategy::kIncremental),
               "incremental");
  EXPECT_STREQ(
      MaintenanceStrategyName(MaintenanceStrategy::kRecomputeFromInverse),
      "recompute-from-inverse");
  EXPECT_STREQ(MaintenanceStrategyName(MaintenanceStrategy::kQuerySource),
               "query-source");
}

TEST_F(WarehouseTest, NoOpDeltaKeepsStateIdentical) {
  Source source(context_.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);
  Database before = warehouse->state();

  // Delete a nonexistent tuple and reinsert an existing one: canonical
  // delta is empty on both sides.
  UpdateOp op{"Sale",
              {T({S("TV set"), S("Mary")})},
              {T({S("Ghost"), S("Nobody")})}};
  Result<CanonicalDelta> delta = source.Apply(op);
  DWC_ASSERT_OK(delta);
  EXPECT_TRUE(delta->empty());
  DWC_ASSERT_OK(warehouse->Integrate(*delta));
  EXPECT_TRUE(warehouse->state().SameStateAs(before));
}

// `Sale ⋈ Emp` is answered by the stored view Sold itself; the answer shares
// Sold's tuples, and mutating it must leave the warehouse consistent.
TEST_F(WarehouseTest, MutatingABareViewAnswerLeavesTheViewIntact) {
  Source source(context_.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);
  Result<ExprRef> query = ParseExpr("Sale join Emp");
  DWC_ASSERT_OK(query);
  const Relation* sold = warehouse->FindRelation("Sold");
  ASSERT_NE(sold, nullptr);
  const Relation before = *sold;
  Result<Relation> answer = warehouse->AnswerQuery(*query);
  DWC_ASSERT_OK(answer);
  EXPECT_EQ(&answer->tuples(), &sold->tuples());  // No copy.
  EXPECT_TRUE(answer->Insert(T({S("Radio"), S("Paula"), I(32)})));
  EXPECT_TRUE(answer->Erase(*answer->tuples().begin()));
  answer->Clear();
  EXPECT_TRUE(sold->SameContentAs(before));
  DWC_EXPECT_OK(CheckConsistency(*warehouse, source.db()));

  // A refresh after the answer is gone still lands where the sources are.
  Result<Relation> kept = warehouse->AnswerQuery(*query);
  DWC_ASSERT_OK(kept);
  UpdateOp op{"Sale", {T({S("Radio"), S("Paula")})}, {}};
  Result<CanonicalDelta> delta = source.Apply(op);
  DWC_ASSERT_OK(delta);
  DWC_ASSERT_OK(warehouse->Integrate(*delta));
  DWC_EXPECT_OK(CheckConsistency(*warehouse, source.db()));
  EXPECT_TRUE(kept->SameContentAs(before));
  EXPECT_EQ(warehouse->FindRelation("Sold")->size(), before.size() + 1);
}

TEST_F(WarehouseTest, SourceApplyValidatesShape) {
  Source source(context_.db);
  UpdateOp bad_rel{"Nope", {T({I(1)})}, {}};
  EXPECT_EQ(source.Apply(bad_rel).status().code(), StatusCode::kNotFound);
  UpdateOp bad_arity{"Sale", {T({S("only-one")})}, {}};
  EXPECT_EQ(source.Apply(bad_arity).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WarehouseTest, SpecToStringMentionsAllParts) {
  std::string text = spec_->ToString();
  EXPECT_NE(text.find("Sold"), std::string::npos);
  EXPECT_NE(text.find("C_Emp"), std::string::npos);
  EXPECT_NE(text.find("inverses"), std::string::npos);
}

TEST_F(WarehouseTest, ComplementNameCollisionRejected) {
  // A warehouse view named like a complement would collide.
  ScriptContext context = MustRun(
      "CREATE TABLE R(a INT);\n"
      "VIEW C_R AS R;\n"
      "VIEW V AS R;\n");
  Result<WarehouseSpec> spec =
      SpecifyWarehouse(context.catalog, context.views);
  // Either the complement name collides or the spec flags the duplicate.
  if (spec.ok()) {
    // C_R is a full copy, so R's complement is provably empty and no
    // collision materializes — that is acceptable too.
    EXPECT_TRUE(spec->complements().empty());
  } else {
    EXPECT_EQ(spec.status().code(), StatusCode::kAlreadyExists);
  }
}

// A scaled Figure 1 without the inclusion dependency, so both complements
// are nonempty: Emp (kDim keyed clerks), Sale (kFact rows naming the first
// half of the clerks) and Sold = Sale ⋈ Emp, refreshed in batches.
class ScaledFigure1Test : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 200;
  static constexpr size_t kFact = 2000;
  static constexpr size_t kBatch = 64;
  static constexpr size_t kRefreshes = 3;

  void SetUp() override {
    catalog_ = std::make_shared<Catalog>();
    DWC_ASSERT_OK(catalog_->AddRelation(
        "Emp",
        Schema({{"clerk", ValueType::kInt}, {"age", ValueType::kInt}})));
    DWC_ASSERT_OK(catalog_->AddKey("Emp", {"clerk"}));
    DWC_ASSERT_OK(catalog_->AddRelation(
        "Sale",
        Schema({{"item", ValueType::kInt}, {"clerk", ValueType::kInt}})));
    db_ = Database(catalog_);
    DWC_ASSERT_OK(db_.AddEmptyRelation("Emp", *catalog_->FindSchema("Emp")));
    DWC_ASSERT_OK(
        db_.AddEmptyRelation("Sale", *catalog_->FindSchema("Sale")));
    Rng rng(11);
    Relation* emp = db_.FindMutableRelation("Emp");
    for (size_t i = 0; i < kDim; ++i) {
      emp->Insert(T({I(static_cast<int64_t>(i)), I(rng.Range(18, 65))}));
    }
    Relation* sale = db_.FindMutableRelation("Sale");
    while (sale->size() < kFact) {
      sale->Insert(T({I(rng.Range(0, 1 << 20)), I(rng.Range(0, kDim / 2))}));
    }
    std::vector<ViewDef> views;
    views.push_back(
        ViewDef{"Sold", Expr::Join(Expr::Base("Sale"), Expr::Base("Emp"))});
    Result<WarehouseSpec> spec = SpecifyWarehouse(catalog_, views);
    DWC_ASSERT_OK(spec);
    spec_ = std::make_shared<WarehouseSpec>(std::move(spec).value());
  }

  // kBatch fresh Sale rows, spread over all the clerks.
  static UpdateOp MakeBatch(Rng* rng) {
    UpdateOp op;
    op.relation = "Sale";
    while (op.inserts.size() < kBatch) {
      op.inserts.push_back(
          T({I(rng->Range(1 << 20, 1 << 24)), I(rng->Range(0, kDim - 1))}));
    }
    return op;
  }

  // The state digest after kRefreshes batches under `strategy`, folded with
  // the digest of a COUNT-per-clerk summary table over Sold.
  uint64_t RunWorkload(MaintenanceStrategy strategy) {
    Source source(db_);
    Result<Warehouse> warehouse =
        Warehouse::Load(spec_, source.db(), strategy);
    DWC_EXPECT_OK(warehouse);
    AggregateViewDef def;
    def.name = "SalesPerClerk";
    def.source = Expr::Base("Sold");
    def.group_by = {"clerk"};
    def.aggregates = {AggSpec{AggFunc::kCount, "", "n"}};
    DWC_EXPECT_OK(warehouse->AddAggregateView(std::move(def)));
    Rng rng(23);
    for (size_t i = 0; i < kRefreshes; ++i) {
      Result<CanonicalDelta> delta = source.Apply(MakeBatch(&rng));
      DWC_EXPECT_OK(delta);
      DWC_EXPECT_OK(warehouse->Integrate(*delta));
    }
    DWC_EXPECT_OK(CheckConsistency(*warehouse, source.db()));
    const AggregateView* aggregate = warehouse->FindAggregate("SalesPerClerk");
    EXPECT_NE(aggregate, nullptr);
    return StateDigest(warehouse->state()).Combined() ^
           RelationDigest(aggregate->materialized());
  }

  std::shared_ptr<Catalog> catalog_;
  Database db_;
  std::shared_ptr<WarehouseSpec> spec_;
};

// Batched refreshes and the aggregate fold land where recomputing from the
// inverse lands.
TEST_F(ScaledFigure1Test, IncrementalMatchesRecompute) {
  EXPECT_EQ(RunWorkload(MaintenanceStrategy::kIncremental),
            RunWorkload(MaintenanceStrategy::kRecomputeFromInverse));
}

TEST_F(ScaledFigure1Test, TransactionMatchesRecompute) {
  auto run = [&](MaintenanceStrategy strategy) {
    Source source(db_);
    Result<Warehouse> warehouse =
        Warehouse::Load(spec_, source.db(), strategy);
    DWC_EXPECT_OK(warehouse);
    // One multi-relation transaction: a new clerk plus their sales.
    std::vector<UpdateOp> ops;
    ops.push_back(UpdateOp{"Emp", {T({I(5000), I(40)})}, {}});
    ops.push_back(UpdateOp{
        "Sale", {T({I(1 << 25), I(5000)}), T({I((1 << 25) + 1), I(5000)})},
        {}});
    Result<std::vector<CanonicalDelta>> deltas = source.ApplyTransaction(ops);
    DWC_EXPECT_OK(deltas);
    DWC_EXPECT_OK(warehouse->IntegrateTransaction(*deltas));
    DWC_EXPECT_OK(CheckConsistency(*warehouse, source.db()));
    return StateDigest(warehouse->state()).Combined();
  };
  EXPECT_EQ(run(MaintenanceStrategy::kIncremental),
            run(MaintenanceStrategy::kRecomputeFromInverse));
}

// The crash-injection contract: a clean refresh numbers its hook steps 0,
// 1, 2, ...; a crash at any step fails the refresh; and a crash leaves the
// state untouched up to the first commit mutation and changed after it
// (evaluation reads only, the commit phase writes).
TEST_F(ScaledFigure1Test, HookStepsNumberInOrderAndCrashesTearOnlyTheCommit) {
  std::vector<int> steps;
  {
    Source source(db_);
    Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
    DWC_ASSERT_OK(warehouse);
    warehouse->SetIntegrationHook([&](int step) {
      steps.push_back(step);
      return Status::Ok();
    });
    Rng rng(23);
    Result<CanonicalDelta> delta = source.Apply(MakeBatch(&rng));
    DWC_ASSERT_OK(delta);
    DWC_ASSERT_OK(warehouse->Integrate(*delta));
  }
  ASSERT_GT(steps.size(), 1u);
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i], static_cast<int>(i));
  }

  std::vector<bool> untouched;
  for (int k = 0; k < static_cast<int>(steps.size()); ++k) {
    Source source(db_);
    Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
    DWC_ASSERT_OK(warehouse);
    const uint64_t before = StateDigest(warehouse->state()).Combined();
    warehouse->SetIntegrationHook([k](int step) {
      return step == k ? Status::Internal("injected crash") : Status::Ok();
    });
    Rng rng(23);
    Result<CanonicalDelta> delta = source.Apply(MakeBatch(&rng));
    DWC_ASSERT_OK(delta);
    EXPECT_EQ(warehouse->Integrate(*delta).code(), StatusCode::kInternal)
        << "hook at step " << k << " did not fire";
    untouched.push_back(StateDigest(warehouse->state()).Combined() == before);
  }
  EXPECT_TRUE(untouched.front());
  EXPECT_FALSE(untouched.back());
  EXPECT_TRUE(std::is_partitioned(untouched.begin(), untouched.end(),
                                  [](bool b) { return b; }));
}

}  // namespace
}  // namespace dwc
