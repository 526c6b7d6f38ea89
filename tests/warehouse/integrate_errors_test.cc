// Warehouse::Integrate / IntegrateTransaction error paths: rejected deltas
// must leave the warehouse state (and its aggregates) exactly unchanged —
// validate-then-apply, not apply-then-notice.

#include <gtest/gtest.h>

#include "core/warehouse_spec.h"
#include "testing/test_util.h"
#include "util/checksum.h"
#include "warehouse/source.h"
#include "warehouse/warehouse.h"

namespace dwc {
namespace {

using ::dwc::testing::Figure1Script;
using ::dwc::testing::I;
using ::dwc::testing::MustRun;
using ::dwc::testing::S;
using ::dwc::testing::T;

class IntegrateErrorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    context_ = MustRun(Figure1Script(/*with_constraints=*/true));
    Result<WarehouseSpec> spec =
        SpecifyWarehouse(context_.catalog, context_.views);
    DWC_ASSERT_OK(spec);
    spec_ = std::make_shared<WarehouseSpec>(std::move(spec).value());
    source_ = std::make_unique<Source>(context_.db, "s1");
    Result<Warehouse> warehouse = Warehouse::Load(spec_, source_->db());
    DWC_ASSERT_OK(warehouse);
    warehouse_ = std::make_unique<Warehouse>(std::move(warehouse).value());
  }

  // Fingerprint of the full warehouse state, for exact no-change checks.
  uint64_t Fingerprint() const {
    return StateDigest(warehouse_->state()).Combined();
  }

  Relation EmpRelation(std::vector<Tuple> tuples) const {
    Relation rel(*spec_->catalog().FindSchema("Emp"));
    for (Tuple& tuple : tuples) {
      rel.Insert(std::move(tuple));
    }
    return rel;
  }

  // Integrates `delta` through one of the two entry points: Integrate, or
  // IntegrateTransaction of the one delta.
  static Status Refresh(Warehouse* warehouse, const CanonicalDelta& delta,
                        bool transaction, const Source* source) {
    return transaction ? warehouse->IntegrateTransaction({delta}, source)
                       : warehouse->Integrate(delta, source);
  }

  static std::string Label(MaintenanceStrategy strategy, bool transaction) {
    return std::string(MaintenanceStrategyName(strategy)) +
           (transaction ? " IntegrateTransaction" : " Integrate");
  }

  static constexpr MaintenanceStrategy kStrategies[] = {
      MaintenanceStrategy::kIncremental,
      MaintenanceStrategy::kRecomputeFromInverse,
      MaintenanceStrategy::kQuerySource};

  ScriptContext context_;
  std::shared_ptr<WarehouseSpec> spec_;
  std::unique_ptr<Source> source_;
  std::unique_ptr<Warehouse> warehouse_;
};

TEST_F(IntegrateErrorsTest, UnknownRelationIsRejectedBeforeAnyWork) {
  uint64_t before = Fingerprint();
  CanonicalDelta delta;
  delta.relation = "Nope";
  delta.inserts = EmpRelation({T({S("Nina"), I(27)})});
  Status status = warehouse_->Integrate(delta);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(Fingerprint(), before);
  DWC_ASSERT_OK(CheckConsistency(*warehouse_, source_->db()));
}

TEST_F(IntegrateErrorsTest, NonCanonicalInsertRejectedWhenValidating) {
  warehouse_->set_validate_deltas(true);
  uint64_t before = Fingerprint();
  CanonicalDelta delta;
  delta.relation = "Emp";
  // 'Mary' is already present: not a canonical insert.
  delta.inserts = EmpRelation({T({S("Mary"), I(23)})});
  Status status = warehouse_->Integrate(delta);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Fingerprint(), before);
  DWC_ASSERT_OK(CheckConsistency(*warehouse_, source_->db()));
}

TEST_F(IntegrateErrorsTest, NonCanonicalDeleteRejectedWhenValidating) {
  warehouse_->set_validate_deltas(true);
  uint64_t before = Fingerprint();
  CanonicalDelta delta;
  delta.relation = "Emp";
  delta.deletes = EmpRelation({T({S("Ghost"), I(1)})});  // Not present.
  Status status = warehouse_->Integrate(delta);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Fingerprint(), before);
  DWC_ASSERT_OK(CheckConsistency(*warehouse_, source_->db()));
}

TEST_F(IntegrateErrorsTest, ValidationIsOffByDefault) {
  // The canonicity check costs O(|base|) per refresh; trusted channels skip
  // it. (What a non-canonical delta then does to the state is the caller's
  // problem — this only documents that the check is opt-in.)
  EXPECT_FALSE(warehouse_->validate_deltas());
}

TEST_F(IntegrateErrorsTest, TransactionWithDuplicateRelationEntriesRejected) {
  uint64_t before = Fingerprint();
  CanonicalDelta first;
  first.relation = "Emp";
  first.inserts = EmpRelation({T({S("Nina"), I(27)})});
  CanonicalDelta second;
  second.relation = "Emp";
  second.inserts = EmpRelation({T({S("Omar"), I(31)})});
  Status status = warehouse_->IntegrateTransaction({first, second});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Fingerprint(), before);
  DWC_ASSERT_OK(CheckConsistency(*warehouse_, source_->db()));
}

TEST_F(IntegrateErrorsTest, TransactionWithUnknownRelationRejected) {
  uint64_t before = Fingerprint();
  CanonicalDelta good;
  good.relation = "Emp";
  good.inserts = EmpRelation({T({S("Nina"), I(27)})});
  CanonicalDelta bad;
  bad.relation = "Nope";
  bad.inserts = EmpRelation({T({S("Omar"), I(31)})});
  Status status = warehouse_->IntegrateTransaction({good, bad});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(Fingerprint(), before);
  DWC_ASSERT_OK(CheckConsistency(*warehouse_, source_->db()));
}

TEST_F(IntegrateErrorsTest, EmptyTransactionIsANoOp) {
  uint64_t before = Fingerprint();
  DWC_ASSERT_OK(warehouse_->IntegrateTransaction({}));
  CanonicalDelta empty;
  empty.relation = "Emp";
  DWC_ASSERT_OK(warehouse_->IntegrateTransaction({empty}));
  EXPECT_EQ(Fingerprint(), before);
}

// The argument checks come first under every strategy and entry point;
// after them an all-empty update, typed or not, is a no-op that publishes
// nothing.
TEST_F(IntegrateErrorsTest, EmptyUpdateIsANoOpAfterTheArgumentChecks) {
  for (MaintenanceStrategy strategy : kStrategies) {
    for (bool transaction : {false, true}) {
      const std::string label = Label(strategy, transaction);
      Result<Warehouse> warehouse =
          Warehouse::Load(spec_, source_->db(), strategy);
      DWC_ASSERT_OK(warehouse);
      const uint64_t before = StateDigest(warehouse->state()).Combined();
      CanonicalDelta typed;
      typed.relation = "Emp";
      typed.inserts = EmpRelation({});
      typed.deletes = EmpRelation({});
      CanonicalDelta schemaless;
      schemaless.relation = "Sale";
      for (const CanonicalDelta* delta : {&typed, &schemaless}) {
        Status status =
            Refresh(&*warehouse, *delta, transaction, source_.get());
        EXPECT_TRUE(status.ok()) << label << ": " << status.ToString();
        EXPECT_EQ(warehouse->current_epoch(), 1u) << label;
        EXPECT_EQ(warehouse->last_integrate_epoch(), 0u) << label;
      }
      CanonicalDelta unknown;
      unknown.relation = "Nope";
      EXPECT_EQ(
          Refresh(&*warehouse, unknown, transaction, source_.get()).code(),
          StatusCode::kNotFound)
          << label;
      const StatusCode sourceless =
          Refresh(&*warehouse, typed, transaction, nullptr).code();
      EXPECT_EQ(sourceless, strategy == MaintenanceStrategy::kQuerySource
                                ? StatusCode::kInvalidArgument
                                : StatusCode::kOk)
          << label;
      EXPECT_EQ(warehouse->current_epoch(), 1u) << label;
      EXPECT_EQ(StateDigest(warehouse->state()).Combined(), before) << label;
    }
  }
}

// A side that carries tuples must carry its base's attributes: refused
// before any work under every strategy and entry point, with or without
// canonical-form validation.
TEST_F(IntegrateErrorsTest, SideWithAnotherBasesSchemaRejected) {
  for (MaintenanceStrategy strategy : kStrategies) {
    for (bool transaction : {false, true}) {
      for (bool validate : {false, true}) {
        const std::string label = Label(strategy, transaction);
        Result<Warehouse> warehouse =
            Warehouse::Load(spec_, source_->db(), strategy);
        DWC_ASSERT_OK(warehouse);
        warehouse->set_validate_deltas(validate);
        const uint64_t before = StateDigest(warehouse->state()).Combined();
        CanonicalDelta delta;
        delta.relation = "Sale";
        delta.inserts = EmpRelation({T({S("Nina"), I(27)})});
        EXPECT_EQ(
            Refresh(&*warehouse, delta, transaction, source_.get()).code(),
            StatusCode::kInvalidArgument)
            << label << " validate=" << validate;
        EXPECT_EQ(warehouse->current_epoch(), 1u) << label;
        EXPECT_EQ(StateDigest(warehouse->state()).Combined(), before)
            << label;
      }
    }
  }
}

// An empty side built without a schema stands for no tuples of the base's
// schema: a delta that carries inserts beside it integrates under every
// strategy and entry point.
TEST_F(IntegrateErrorsTest, SchemalessEmptySideBesideTuplesIntegrates) {
  for (MaintenanceStrategy strategy : kStrategies) {
    for (bool transaction : {false, true}) {
      const std::string label = Label(strategy, transaction);
      Source source(context_.db);
      Result<Warehouse> warehouse =
          Warehouse::Load(spec_, source.db(), strategy);
      DWC_ASSERT_OK(warehouse);
      Result<CanonicalDelta> applied =
          source.Apply({"Sale", {T({S("Radio"), S("John")})}, {}});
      DWC_ASSERT_OK(applied);
      CanonicalDelta delta;
      delta.relation = "Sale";
      delta.inserts = applied->inserts;
      Status status = Refresh(&*warehouse, delta, transaction, &source);
      ASSERT_TRUE(status.ok()) << label << ": " << status.ToString();
      DWC_EXPECT_OK(CheckConsistency(*warehouse, source.db()));
      EXPECT_EQ(warehouse->current_epoch(), 2u) << label;
    }
  }
}

TEST_F(IntegrateErrorsTest, ReconstructBaseRoundTripsAndRejectsUnknown) {
  Result<Relation> emp = warehouse_->ReconstructBase("Emp");
  DWC_ASSERT_OK(emp);
  EXPECT_TRUE(
      testing::RelationsEqual(*emp, *source_->db().FindRelation("Emp")));
  EXPECT_EQ(warehouse_->ReconstructBase("Nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(IntegrateErrorsTest, ValidDeltaStillIntegratesUnderValidation) {
  warehouse_->set_validate_deltas(true);
  Result<CanonicalDelta> delta =
      source_->Apply({"Emp", {T({S("Nina"), I(27)})}, {}});
  DWC_ASSERT_OK(delta);
  DWC_ASSERT_OK(warehouse_->Integrate(*delta));
  DWC_ASSERT_OK(CheckConsistency(*warehouse_, source_->db()));
  EXPECT_EQ(source_->query_count(), 0u);
}

}  // namespace
}  // namespace dwc
