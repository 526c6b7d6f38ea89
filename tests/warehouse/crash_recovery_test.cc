// Crash-safe integration: checkpoint + WAL replay must reproduce the exact
// pre-crash state no matter where inside Integrate a crash tears the
// in-memory warehouse. The crash-injection harness kills the victim at
// every internal step index in turn (SetIntegrationHook); each victim is
// booted from the storage directory with a read-only
// RecoveryManager::Recover, and a delta reaches the WAL only once an
// integration of it committed.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "aggregate/aggregate_view.h"
#include "core/warehouse_spec.h"
#include "storage/durable.h"
#include "storage/fault_vfs.h"
#include "storage/recovery.h"
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

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    context_ = MustRun(Figure1Script(/*with_constraints=*/true));
    spec_ = std::make_shared<WarehouseSpec>(
        *SpecifyWarehouse(context_.catalog, context_.views));
    source_ = std::make_unique<Source>(context_.db, "s1");
    Result<Warehouse> warehouse = Warehouse::Load(spec_, source_->db());
    DWC_ASSERT_OK(warehouse);
    warehouse_ = std::make_unique<Warehouse>(std::move(warehouse).value());
    // A summary table so the sweep also covers the aggregate-folding steps.
    AggregateViewDef def;
    def.name = "SalesPerClerk";
    def.source = Expr::Base("Sold");
    def.group_by = {"clerk"};
    def.aggregates = {{AggFunc::kCount, "", "n"}};
    DWC_ASSERT_OK(warehouse_->AddAggregateView(def));
    Result<std::unique_ptr<DurableWarehouse>> durable =
        DurableWarehouse::Bootstrap(
            &vfs_, "wh", warehouse_.get(),
            JournalStamp{source_->epoch(), source_->last_sequence()});
    DWC_ASSERT_OK(durable);
    durable_ = std::move(durable).value();
  }

  // A short update stream respecting the inclusion Sale(clerk) <= Emp(clerk).
  static std::vector<UpdateOp> Stream() {
    return {
        {"Emp", {T({S("Nina"), I(27)})}, {}},
        {"Sale", {T({S("radio"), S("Nina")})}, {}},
        {"Emp", {T({S("Omar"), I(31)})}, {}},
        {"Sale", {T({S("tv"), S("Omar")})}, {T({S("radio"), S("Nina")})}},
        {"Emp", {}, {T({S("Nina"), I(27)})}},
        {"Sale", {T({S("camera"), S("Omar")})}, {T({S("PC"), S("John")})}},
    };
  }

  static uint64_t Fingerprint(const Warehouse& warehouse) {
    return StateDigest(warehouse.state()).Combined();
  }

  // The durable state as a fresh warehouse: checkpoint + WAL, read-only.
  Result<RestoredWarehouse> Boot(
      MaintenanceStrategy strategy = MaintenanceStrategy::kIncremental) {
    DWC_ASSIGN_OR_RETURN(
        RecoveredStorage recovered,
        RecoveryManager(&vfs_, "wh").Recover(/*repair=*/false, strategy));
    return std::move(recovered.restored);
  }

  // Integrates a committed delta into the live warehouse and logs it.
  void Commit(const CanonicalDelta& delta) {
    DWC_ASSERT_OK(warehouse_->Integrate(delta));
    DWC_ASSERT_OK(durable_->Append(delta));
  }

  ScriptContext context_;
  std::shared_ptr<WarehouseSpec> spec_;
  std::unique_ptr<Source> source_;
  std::unique_ptr<Warehouse> warehouse_;
  FaultVfs vfs_;
  std::unique_ptr<DurableWarehouse> durable_;
};

TEST_F(CrashRecoveryTest, WalReplayReproducesCleanRun) {
  for (const UpdateOp& op : Stream()) {
    Result<CanonicalDelta> delta = source_->Apply(op);
    DWC_ASSERT_OK(delta);
    Commit(*delta);
  }
  EXPECT_EQ(durable_->stats().journal_records, Stream().size());
  Result<RestoredWarehouse> recovered = Boot();
  DWC_ASSERT_OK(recovered);
  EXPECT_TRUE(recovered->warehouse->state().SameStateAs(warehouse_->state()));
  const AggregateView* live = warehouse_->FindAggregate("SalesPerClerk");
  const AggregateView* replayed =
      recovered->warehouse->FindAggregate("SalesPerClerk");
  ASSERT_NE(live, nullptr);
  ASSERT_NE(replayed, nullptr);
  EXPECT_TRUE(testing::RelationsEqual(replayed->materialized(),
                                      live->materialized()));
  DWC_ASSERT_OK(CheckConsistency(*recovered->warehouse, source_->db()));
}

TEST_F(CrashRecoveryTest, CrashAtEveryStepRecoversExactPreCrashState) {
  bool any_crash = false;
  bool any_torn = false;
  for (const UpdateOp& op : Stream()) {
    Result<CanonicalDelta> delta = source_->Apply(op);
    DWC_ASSERT_OK(delta);
    for (int crash_at = 0;; ++crash_at) {
      // A fresh victim booted from the durable state (checkpoint + WAL so
      // far), killed at internal step `crash_at` of this integration.
      Result<RestoredWarehouse> victim = Boot();
      DWC_ASSERT_OK(victim);
      uint64_t durable = Fingerprint(*victim->warehouse);
      bool fired = false;
      victim->warehouse->SetIntegrationHook([&fired, crash_at](int step) {
        if (step == crash_at) {
          fired = true;
          return Status::Internal("simulated crash");
        }
        return Status::Ok();
      });
      Status status = victim->warehouse->Integrate(*delta);
      if (status.ok()) {
        // The integration ran past the last internal step: this delta is
        // committed, log it and move on. (The hook must not have fired —
        // a swallowed crash would be a torn commit.)
        ASSERT_FALSE(fired);
        Commit(*delta);
        DWC_ASSERT_OK(CheckConsistency(*victim->warehouse, source_->db()));
        break;
      }
      any_crash = true;
      ASSERT_TRUE(fired) << status.ToString();
      ASSERT_EQ(status.code(), StatusCode::kInternal);
      // The victim's in-memory state may be torn (crashes mid-commit leave
      // partial mutations behind by design — recovery, not rollback, is
      // the contract); it is simply discarded.
      if (Fingerprint(*victim->warehouse) != durable) {
        any_torn = true;
      }
      // Replay lands exactly on the last durable state: the in-flight
      // delta was never logged, so it is cleanly absent.
      Result<RestoredWarehouse> recovered = Boot();
      DWC_ASSERT_OK(recovered);
      EXPECT_EQ(Fingerprint(*recovered->warehouse), durable)
          << "crash at step " << crash_at;
    }
  }
  // The sweep must have actually exercised crashes, including ones that
  // left visibly torn state (that is what the log exists for).
  EXPECT_TRUE(any_crash);
  EXPECT_TRUE(any_torn);
  Result<RestoredWarehouse> final_state = Boot();
  DWC_ASSERT_OK(final_state);
  DWC_ASSERT_OK(CheckConsistency(*final_state->warehouse, source_->db()));
}

TEST_F(CrashRecoveryTest, TransactionCrashSweepNeverTearsTheLog) {
  Result<std::vector<CanonicalDelta>> deltas = source_->ApplyTransaction({
      {"Emp", {T({S("Nina"), I(27)})}, {}},
      {"Sale", {T({S("radio"), S("Nina")})}, {T({S("VCR"), S("Mary")})}},
  });
  DWC_ASSERT_OK(deltas);
  bool any_crash = false;
  for (int crash_at = 0;; ++crash_at) {
    Result<RestoredWarehouse> victim = Boot();
    DWC_ASSERT_OK(victim);
    uint64_t durable = Fingerprint(*victim->warehouse);
    bool fired = false;
    victim->warehouse->SetIntegrationHook([&fired, crash_at](int step) {
      return step == crash_at ? (fired = true, Status::Internal("crash"))
                              : Status::Ok();
    });
    Status status = victim->warehouse->IntegrateTransaction(*deltas);
    if (status.ok()) {
      ASSERT_FALSE(fired);
      DWC_ASSERT_OK(warehouse_->IntegrateTransaction(*deltas));
      for (const CanonicalDelta& delta : *deltas) {
        DWC_ASSERT_OK(durable_->Append(delta));
      }
      DWC_ASSERT_OK(CheckConsistency(*victim->warehouse, source_->db()));
      break;
    }
    any_crash = true;
    Result<RestoredWarehouse> recovered = Boot();
    DWC_ASSERT_OK(recovered);
    EXPECT_EQ(Fingerprint(*recovered->warehouse), durable)
        << "crash at step " << crash_at;
  }
  EXPECT_TRUE(any_crash);
  Result<RestoredWarehouse> final_state = Boot();
  DWC_ASSERT_OK(final_state);
  DWC_ASSERT_OK(CheckConsistency(*final_state->warehouse, source_->db()));
}

TEST_F(CrashRecoveryTest, RecomputeStrategyCrashesAreRecoverableToo) {
  Result<CanonicalDelta> delta =
      source_->Apply({"Emp", {T({S("Nina"), I(27)})}, {}});
  DWC_ASSERT_OK(delta);
  for (int crash_at = 0;; ++crash_at) {
    Result<RestoredWarehouse> victim =
        Boot(MaintenanceStrategy::kRecomputeFromInverse);
    DWC_ASSERT_OK(victim);
    uint64_t durable = Fingerprint(*victim->warehouse);
    bool fired = false;
    victim->warehouse->SetIntegrationHook([&fired, crash_at](int step) {
      return step == crash_at ? (fired = true, Status::Internal("crash"))
                              : Status::Ok();
    });
    Status status = victim->warehouse->Integrate(*delta);
    if (status.ok()) {
      ASSERT_FALSE(fired);
      Commit(*delta);
      DWC_ASSERT_OK(CheckConsistency(*victim->warehouse, source_->db()));
      break;
    }
    Result<RestoredWarehouse> recovered =
        Boot(MaintenanceStrategy::kRecomputeFromInverse);
    DWC_ASSERT_OK(recovered);
    EXPECT_EQ(Fingerprint(*recovered->warehouse), durable);
  }
}

TEST_F(CrashRecoveryTest, DamagedWalRecordFailsLoudlyOnReplay) {
  Result<CanonicalDelta> delta =
      source_->Apply({"Emp", {T({S("Nina"), I(27)})}, {}});
  DWC_ASSERT_OK(delta);
  CanonicalDelta tampered = *delta;
  tampered.state_digest ^= 1;  // Bit flip in the logged digest.
  // The frame's CRC covers the tampered payload, so only the replay's
  // digest re-verification can catch it.
  DWC_ASSERT_OK(durable_->Append(tampered));
  Result<RestoredWarehouse> recovered = Boot();
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CrashRecoveryTest, CheckpointStartsAFreshLog) {
  Result<CanonicalDelta> first =
      source_->Apply({"Emp", {T({S("Nina"), I(27)})}, {}});
  DWC_ASSERT_OK(first);
  Commit(*first);
  // Take a fresh checkpoint of the current state: replay from here must
  // not need (or see) the pre-checkpoint delta.
  DWC_ASSERT_OK(durable_->Checkpoint());
  EXPECT_EQ(durable_->stats().journal_records, 0u);
  Result<CanonicalDelta> second =
      source_->Apply({"Emp", {T({S("Omar"), I(31)})}, {}});
  DWC_ASSERT_OK(second);
  Commit(*second);
  Result<RecoveredStorage> recovered =
      RecoveryManager(&vfs_, "wh").Recover(/*repair=*/false);
  DWC_ASSERT_OK(recovered);
  EXPECT_EQ(recovered->report.records_replayed, 1u);
  EXPECT_TRUE(recovered->restored.warehouse->state().SameStateAs(
      warehouse_->state()));
}

}  // namespace
}  // namespace dwc
