// Epoch lifecycle edge cases for the snapshot-isolation layer
// (warehouse/epoch.h): publication on every committed state transition,
// isolation across in-place and copy-on-write commits, failed integrations
// publishing nothing, snapshots outliving checkpoint + Resume (and the
// warehouse object itself), reclamation with zero readers, and the
// epoch-lag shed policy. The cross-thread torture lives in
// concurrent_serving_chaos_test.cc; these tests pin down the single-thread
// semantics the chaos suite builds on.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/warehouse_spec.h"
#include "parser/parser.h"
#include "storage/durable.h"
#include "storage/fault_vfs.h"
#include "testing/test_util.h"
#include "util/checksum.h"
#include "warehouse/epoch.h"
#include "warehouse/source.h"
#include "warehouse/warehouse.h"

namespace dwc {
namespace {

using ::dwc::testing::Figure1Script;
using ::dwc::testing::I;
using ::dwc::testing::MustRun;
using ::dwc::testing::S;
using ::dwc::testing::T;

class EpochTest : public ::testing::Test {
 protected:
  void SetUp() override {
    context_ = MustRun(Figure1Script(/*with_constraints=*/true));
    Result<WarehouseSpec> spec =
        SpecifyWarehouse(context_.catalog, context_.views);
    DWC_ASSERT_OK(spec);
    spec_ = std::make_shared<WarehouseSpec>(std::move(spec).value());
  }

  // One canonical Emp delta: hire `hire`; when `fire` is non-null, fire
  // that exact (clerk, age) tuple too.
  CanonicalDelta EmpDelta(Source* source, const char* hire, int age,
                          const char* fire = nullptr, int fire_age = 0) {
    UpdateOp op;
    op.relation = "Emp";
    op.inserts = {T({S(hire), I(age)})};
    if (fire != nullptr) {
      op.deletes = {T({S(fire), I(fire_age)})};
    }
    Result<CanonicalDelta> delta = source->Apply(op);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    return std::move(delta).value();
  }

  uint64_t QueryDigest(const Warehouse& warehouse,
                       const SnapshotHandle& snapshot, const char* text) {
    Result<ExprRef> query = ParseExpr(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    Result<Relation> answer = warehouse.AnswerQueryAt(snapshot, *query);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return answer.ok() ? RelationDigest(*answer) : 0;
  }

  ScriptContext context_;
  std::shared_ptr<WarehouseSpec> spec_;
};

TEST_F(EpochTest, LoadPublishesEpochOne) {
  Result<Warehouse> warehouse = Warehouse::Load(spec_, context_.db);
  DWC_ASSERT_OK(warehouse);
  EXPECT_EQ(warehouse->current_epoch(), 1u);
  EpochStats stats = warehouse->epoch_stats();
  EXPECT_EQ(stats.published, 1u);
  EXPECT_EQ(stats.live_snapshots, 0u);
  SnapshotHandle snapshot = warehouse->PinSnapshot();
  EXPECT_TRUE(snapshot.valid());
  EXPECT_EQ(snapshot.epoch(), 1u);
  EXPECT_NE(snapshot.Find("Sold"), nullptr);
  EXPECT_EQ(warehouse->epoch_stats().live_snapshots, 1u);
}

TEST_F(EpochTest, InPlaceCommitAdvancesEpochAndReclaims) {
  Source source(context_.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);
  // No pins: every commit may mutate in place, and each superseded epoch
  // has zero readers, so it is reclaimed immediately at publish.
  for (int i = 0; i < 3; ++i) {
    std::string name = "Clerk" + std::to_string(i);
    DWC_ASSERT_OK(
        warehouse->Integrate(EmpDelta(&source, name.c_str(), 30 + i)));
  }
  EpochStats stats = warehouse->epoch_stats();
  EXPECT_EQ(warehouse->current_epoch(), 4u);
  EXPECT_EQ(stats.inplace_commits, 3u);
  EXPECT_EQ(stats.cow_commits, 0u);
  EXPECT_EQ(stats.retired_epochs, 0u);
  EXPECT_EQ(stats.retired_versions, 0u);
  EXPECT_EQ(stats.reclaimed_epochs, 3u);
  EXPECT_EQ(warehouse->last_integrate_epoch(), 4u);
}

TEST_F(EpochTest, SnapshotIsolatedAcrossCowCommit) {
  Source source(context_.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);

  SnapshotHandle snapshot = warehouse->PinSnapshot();
  uint64_t before_sold = QueryDigest(*warehouse, snapshot, "Sold");
  uint64_t before_emp = QueryDigest(*warehouse, snapshot, "Emp");

  // The pin forces the copy-on-write path; 'Mary' leaving changes Sold.
  DWC_ASSERT_OK(
      warehouse->Integrate(EmpDelta(&source, "Nina", 27, "Mary", 23)));
  EXPECT_EQ(warehouse->epoch_stats().cow_commits, 1u);
  EXPECT_EQ(warehouse->current_epoch(), 2u);

  // The pinned epoch still answers with the pre-integration state.
  EXPECT_EQ(QueryDigest(*warehouse, snapshot, "Sold"), before_sold);
  EXPECT_EQ(QueryDigest(*warehouse, snapshot, "Emp"), before_emp);
  // A fresh pin sees the new state.
  SnapshotHandle fresh = warehouse->PinSnapshot();
  EXPECT_EQ(fresh.epoch(), 2u);
  EXPECT_NE(QueryDigest(*warehouse, fresh, "Sold"), before_sold);

  // Releasing the old pin reclaims its epoch.
  EXPECT_EQ(warehouse->epoch_stats().retired_epochs, 1u);
  snapshot.Release();
  EXPECT_FALSE(snapshot.valid());
  EpochStats stats = warehouse->epoch_stats();
  EXPECT_EQ(stats.retired_epochs, 0u);
  EXPECT_EQ(stats.reclaimed_epochs, 1u);
  EXPECT_EQ(stats.live_snapshots, 1u);
}

TEST_F(EpochTest, FailedIntegrationPublishesNothing) {
  Source source(context_.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);
  warehouse->set_validate_deltas(true);

  SnapshotHandle snapshot = warehouse->PinSnapshot();
  uint64_t before = QueryDigest(*warehouse, snapshot, "Sold");

  // Non-canonical by hand: inserts a tuple that is already present. The
  // validator rejects it before any mutation; nothing publishes.
  CanonicalDelta bogus;
  bogus.relation = "Emp";
  bogus.inserts = Relation(*context_.catalog->FindSchema("Emp"));
  bogus.inserts.Insert(T({S("Mary"), I(23)}));
  bogus.deletes = Relation(*context_.catalog->FindSchema("Emp"));
  EXPECT_EQ(warehouse->Integrate(bogus).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(warehouse->current_epoch(), 1u);
  EXPECT_EQ(warehouse->last_integrate_epoch(), 0u);

  // A hook-aborted integration before the first mutation also rolls back
  // cleanly: same epoch, same answers, live state still consistent.
  warehouse->set_validate_deltas(false);
  warehouse->SetIntegrationHook([](int step) {
    return step == 0 ? Status::Internal("injected abort") : Status::Ok();
  });
  CanonicalDelta delta = EmpDelta(&source, "Nina", 27);
  EXPECT_EQ(warehouse->Integrate(delta).code(), StatusCode::kInternal);
  warehouse->SetIntegrationHook(nullptr);
  EXPECT_EQ(warehouse->current_epoch(), 1u);
  EXPECT_EQ(QueryDigest(*warehouse, snapshot, "Sold"), before);
  // The same snapshot spans the failed attempt and the eventual success.
  DWC_ASSERT_OK(warehouse->Integrate(delta));
  EXPECT_EQ(warehouse->current_epoch(), 2u);
  EXPECT_EQ(warehouse->last_integrate_epoch(), 2u);
  EXPECT_EQ(QueryDigest(*warehouse, snapshot, "Sold"), before);
  DWC_ASSERT_OK(CheckConsistency(*warehouse, source.db()));
}

TEST_F(EpochTest, SnapshotOutlivesWarehouse) {
  SnapshotHandle snapshot;
  uint64_t sold_digest = 0;
  {
    Result<Warehouse> warehouse = Warehouse::Load(spec_, context_.db);
    DWC_ASSERT_OK(warehouse);
    snapshot = warehouse->PinSnapshot();
    sold_digest = RelationDigest(*snapshot.Find("Sold"));
  }
  // The handle keeps the epoch manager and the pinned versions alive past
  // the warehouse's destruction.
  ASSERT_TRUE(snapshot.valid());
  ASSERT_NE(snapshot.Find("Sold"), nullptr);
  EXPECT_EQ(RelationDigest(*snapshot.Find("Sold")), sold_digest);
}

TEST_F(EpochTest, SnapshotOutlivesCheckpointAndResume) {
  FaultVfs vfs;
  Source source(context_.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);
  Result<std::unique_ptr<DurableWarehouse>> durable =
      DurableWarehouse::Bootstrap(
          &vfs, "wh", &warehouse.value(),
          JournalStamp{source.epoch(), source.last_sequence()});
  DWC_ASSERT_OK(durable);

  SnapshotHandle snapshot = warehouse->PinSnapshot();
  uint64_t before = QueryDigest(*warehouse, snapshot, "Sold");

  DWC_ASSERT_OK(
      (*durable)->Integrate(EmpDelta(&source, "Nina", 27, "Mary", 23), &source));
  DWC_ASSERT_OK((*durable)->Checkpoint());

  // Resume rebuilds an independent warehouse at a single consistent state;
  // its snapshot timeline restarts at 1. The live snapshot still answers
  // from its pinned (pre-integration) epoch.
  Result<DurableWarehouse::Resumed> resumed =
      DurableWarehouse::Resume(&vfs, "wh");
  DWC_ASSERT_OK(resumed);
  Warehouse& revived = *resumed->recovered.restored.warehouse;
  EXPECT_EQ(revived.current_epoch(), 1u);
  SnapshotHandle revived_snapshot = revived.PinSnapshot();
  EXPECT_NE(QueryDigest(revived, revived_snapshot, "Sold"), before);
  EXPECT_EQ(QueryDigest(*warehouse, snapshot, "Sold"), before);
}

TEST_F(EpochTest, ShedPolicyFlagsLaggingSnapshots) {
  Source source(context_.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);

  SnapshotHandle laggard = warehouse->PinSnapshot();
  ASSERT_EQ(laggard.epoch(), 1u);
  // Publish kMaxEpochLag + 1 epochs past the pinned one.
  for (uint64_t i = 1; i <= kMaxEpochLag + 1; ++i) {
    std::string name = "Clerk" + std::to_string(i);
    DWC_ASSERT_OK(warehouse->Integrate(
        EmpDelta(&source, name.c_str(), 30 + static_cast<int>(i % 30))));
    if (i <= kMaxEpochLag) {
      // Within the lag bound: still serving.
      ASSERT_FALSE(laggard.shed()) << "after " << i << " publishes";
    }
  }
  EXPECT_TRUE(laggard.shed());
  EXPECT_EQ(warehouse->epoch_stats().shed_snapshots, 1u);

  Result<ExprRef> query = ParseExpr("Sold");
  DWC_ASSERT_OK(query);
  Result<Relation> answer = warehouse->AnswerQueryAt(laggard, *query);
  EXPECT_EQ(answer.status().code(), StatusCode::kAborted);
  // A shed handle still pins its memory until dropped; a fresh pin serves.
  SnapshotHandle fresh = warehouse->PinSnapshot();
  DWC_EXPECT_OK(warehouse->AnswerQueryAt(fresh, *query));
  // Shedding is one-shot per handle: further publishes do not count it
  // again.
  DWC_ASSERT_OK(warehouse->Integrate(EmpDelta(&source, "Zoe", 41)));
  EXPECT_EQ(warehouse->epoch_stats().shed_snapshots, 1u);
}

TEST_F(EpochTest, AggregateViewsSnapshotIsolated) {
  Source source(context_.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);
  AggregateViewDef def;
  def.name = "SalesPerClerk";
  def.source = Expr::Base("Sold");
  def.group_by = {"clerk"};
  def.aggregates = {{AggFunc::kCount, "", "n"}};
  DWC_ASSERT_OK(warehouse->AddAggregateView(def));
  // Registering a view is a state transition: it publishes.
  EXPECT_EQ(warehouse->current_epoch(), 2u);

  SnapshotHandle snapshot = warehouse->PinSnapshot();
  uint64_t before = QueryDigest(*warehouse, snapshot, "SalesPerClerk");

  // A new sale by a new clerk changes the aggregate (COW: pin is held).
  UpdateOp op;
  op.relation = "Sale";
  op.inserts = {T({S("Radio"), S("John")})};
  Result<CanonicalDelta> delta = source.Apply(op);
  DWC_ASSERT_OK(delta);
  DWC_ASSERT_OK(warehouse->Integrate(*delta));

  EXPECT_EQ(QueryDigest(*warehouse, snapshot, "SalesPerClerk"), before);
  SnapshotHandle fresh = warehouse->PinSnapshot();
  EXPECT_NE(QueryDigest(*warehouse, fresh, "SalesPerClerk"), before);
}

TEST_F(EpochTest, CopiedWarehouseHasIndependentTimeline) {
  Source source(context_.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);
  DWC_ASSERT_OK(warehouse->Integrate(EmpDelta(&source, "Nina", 27)));
  ASSERT_EQ(warehouse->current_epoch(), 2u);

  Warehouse copy(*warehouse);
  EXPECT_EQ(copy.current_epoch(), 1u);
  EXPECT_TRUE(copy.state().SameStateAs(warehouse->state()));

  // Integrations on the copy never disturb the original's snapshots.
  SnapshotHandle original_pin = warehouse->PinSnapshot();
  uint64_t before = QueryDigest(*warehouse, original_pin, "Sold");
  Source copy_source(source.db());
  DWC_ASSERT_OK(
      copy.Integrate(EmpDelta(&copy_source, "Omar", 31, "Mary", 23)));
  EXPECT_EQ(copy.current_epoch(), 2u);
  EXPECT_EQ(warehouse->current_epoch(), 2u);
  EXPECT_EQ(QueryDigest(*warehouse, original_pin, "Sold"), before);
  EXPECT_EQ(warehouse->epoch_stats().live_snapshots, 1u);
  EXPECT_EQ(copy.epoch_stats().live_snapshots, 0u);
}

// S1 regression: last_integrate_stats()/epoch_stats()/last_integrate_epoch()
// are safe to poll from a monitor thread while the writer integrates (the
// old field was a bare struct the writer updated mid-flight; under TSan
// this test fails against that implementation).
TEST_F(EpochTest, StatsReadableWhileIntegrating) {
  Source source(context_.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> polls{0};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EvalStats stats = warehouse->last_integrate_stats();
      (void)stats;
      uint64_t epoch = warehouse->last_integrate_epoch();
      EXPECT_LE(epoch, warehouse->current_epoch());
      (void)warehouse->epoch_stats().ToString();
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Start integrating only once the monitor is polling, so the two
  // overlap even when 20 integrations take less than a scheduler tick.
  while (polls.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 20; ++i) {
    std::string name = "Clerk" + std::to_string(i);
    DWC_ASSERT_OK(
        warehouse->Integrate(EmpDelta(&source, name.c_str(), 20 + i)));
  }
  stop.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_GT(polls.load(), 0u);
  EXPECT_EQ(warehouse->last_integrate_epoch(), warehouse->current_epoch());
  const EvalStats final_stats = warehouse->last_integrate_stats();
  EXPECT_GT(final_stats.joins + final_stats.differences +
                final_stats.cache_misses + final_stats.index_probes,
            0u)
      << "the last integration's evaluation stats look empty";
}

}  // namespace
}  // namespace dwc
