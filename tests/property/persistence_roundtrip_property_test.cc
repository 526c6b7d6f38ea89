// Property: WarehouseToScript ∘ WarehouseFromScript is the identity on
// warehouse states — for random view sets over random databases, across
// catalog shapes and seeds. The DSL checkpoint is the storage layer's
// snapshot format (storage/checkpoint.h), so this round-trip is what makes
// an atomic checkpoint actually restorable. And through the whole durable
// stack: a random workload crashed at injected I/O points recovers to
// exactly a state the clean run committed.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/warehouse_spec.h"
#include "testing/property_util.h"
#include "storage/durable.h"
#include "storage/fault_vfs.h"
#include "testing/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "warehouse/persistence.h"
#include "warehouse/source.h"
#include "warehouse/warehouse.h"
#include "workload/random_db.h"
#include "workload/random_views.h"
#include "workload/update_stream.h"

namespace dwc {
namespace {

using ::dwc::testing::CatalogShape;
using ::dwc::testing::CatalogShapeName;
using ::dwc::testing::MakeCatalog;

struct RoundTripCase {
  CatalogShape shape;
  bool use_constraints;
  uint64_t seed;
};

class PersistenceRoundTripPropertyTest
    : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(PersistenceRoundTripPropertyTest, ScriptRoundTripsRandomWorkloads) {
  const RoundTripCase& param = GetParam();
  Rng rng(param.seed);
  std::shared_ptr<Catalog> catalog = MakeCatalog(param.shape);

  for (int round = 0; round < 8; ++round) {
    Result<std::vector<ViewDef>> views =
        GenerateRandomPsjViews(*catalog, &rng);
    DWC_ASSERT_OK(views);
    ComplementOptions options;
    options.use_constraints = param.use_constraints;
    Result<WarehouseSpec> spec = SpecifyWarehouse(catalog, *views, options);
    DWC_ASSERT_OK(spec);
    auto spec_ptr = std::make_shared<WarehouseSpec>(std::move(spec).value());
    Result<Database> db = GenerateRandomDatabase(catalog, &rng);
    DWC_ASSERT_OK(db);
    Result<Warehouse> warehouse = Warehouse::Load(spec_ptr, *db);
    DWC_ASSERT_OK(warehouse);

    Result<std::string> script = WarehouseToScript(*warehouse);
    DWC_ASSERT_OK(script);
    // The script does not record complement options; restoring under
    // different options would legitimately rebuild a different complement,
    // so the dump-time options are part of the restore contract.
    Result<RestoredWarehouse> restored = WarehouseFromScript(
        *script, MaintenanceStrategy::kIncremental, options);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString()
                               << "\nround " << round << "\nscript:\n"
                               << *script;
    EXPECT_TRUE(
        restored->warehouse->state().SameStateAs(warehouse->state()))
        << "round " << round << "\nviews:\n" << spec_ptr->ToString();
    EXPECT_TRUE(restored->source->db().SameStateAs(*db))
        << "round " << round;
    DWC_ASSERT_OK(
        CheckConsistency(*restored->warehouse, restored->source->db()));

    // The restored checkpoint is itself checkpointable, and the second
    // script describes the identical state (dump is deterministic).
    Result<std::string> again = WarehouseToScript(*restored->warehouse);
    DWC_ASSERT_OK(again);
    EXPECT_EQ(*again, *script) << "round " << round;
  }
}

std::vector<RoundTripCase> AllCases() {
  std::vector<RoundTripCase> cases;
  uint64_t seed = 4242;
  for (CatalogShape shape : {CatalogShape::kChain, CatalogShape::kKeyed,
                             CatalogShape::kKeyedInds}) {
    for (bool constraints : {false, true}) {
      cases.push_back(RoundTripCase{shape, constraints, seed});
      seed += 23;
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PersistenceRoundTripPropertyTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return std::string(CatalogShapeName(info.param.shape)) +
             (info.param.use_constraints ? "WithConstraints" : "Plain");
    });

uint64_t Fingerprint(const Warehouse& warehouse) {
  return StateDigest(warehouse.state()).Combined();
}

class CrashRecoveryPropertyTest
    : public ::testing::TestWithParam<CatalogShape> {};

// A warehouse behind DurableWarehouse over a FaultVfs, crashed at a spread
// of injected I/O points, recovers to a state whose digest the clean run
// recorded at the recovered sequence. (crash_matrix_test sweeps every crash
// point of one fixed workload; this samples random view sets.)
TEST_P(CrashRecoveryPropertyTest, CrashRecoveryMatchesCleanRun) {
  std::shared_ptr<Catalog> catalog = MakeCatalog(GetParam());
  std::vector<std::string> relations = catalog->RelationNames();
  Rng setup_rng(777 + static_cast<uint64_t>(GetParam()));
  Result<std::vector<ViewDef>> views =
      GenerateRandomPsjViews(*catalog, &setup_rng);
  DWC_ASSERT_OK(views);
  Result<WarehouseSpec> spec = SpecifyWarehouse(catalog, *views);
  DWC_ASSERT_OK(spec);
  auto spec_ptr = std::make_shared<WarehouseSpec>(std::move(spec).value());
  Result<Database> db = GenerateRandomDatabase(catalog, &setup_rng);
  DWC_ASSERT_OK(db);

  constexpr int kSteps = 6;
  // Runs the workload over `vfs` until done or crash; records the digest
  // after every durable sequence when `digest_by_seq` is given.
  auto run = [&](FaultVfs* vfs,
                 std::map<uint64_t, uint64_t>* digest_by_seq) -> Status {
    Source source(*db, "s1");
    Result<Warehouse> warehouse = Warehouse::Load(spec_ptr, source.db());
    DWC_RETURN_IF_ERROR(warehouse.status());
    Result<std::unique_ptr<DurableWarehouse>> durable =
        DurableWarehouse::Bootstrap(
            vfs, "wh", &warehouse.value(),
            JournalStamp{source.epoch(), source.last_sequence()});
    DWC_RETURN_IF_ERROR(durable.status());
    if (digest_by_seq != nullptr) {
      (*digest_by_seq)[source.last_sequence()] = Fingerprint(*warehouse);
    }
    Rng stream_rng(8800);
    for (int step = 0; step < kSteps; ++step) {
      const std::string& relation =
          relations[stream_rng.Below(relations.size())];
      Result<UpdateOp> op =
          GenerateRandomUpdate(source.db(), relation, &stream_rng);
      DWC_RETURN_IF_ERROR(op.status());
      Result<CanonicalDelta> delta = source.Apply(*op);
      DWC_RETURN_IF_ERROR(delta.status());
      DWC_RETURN_IF_ERROR((*durable)->Integrate(*delta, &source));
      if (digest_by_seq != nullptr) {
        (*digest_by_seq)[source.last_sequence()] = Fingerprint(*warehouse);
      }
    }
    return Status::Ok();
  };

  // The oracle: a clean run over a faultless VFS.
  std::map<uint64_t, uint64_t> digest_by_seq;
  uint64_t total_ops = 0;
  {
    FaultVfs vfs;
    DWC_ASSERT_OK(run(&vfs, &digest_by_seq));
    total_ops = vfs.op_count();
  }
  ASSERT_GT(total_ops, 10u);

  for (uint64_t crash_at = 1; crash_at < total_ops; crash_at += 5) {
    SCOPED_TRACE(StrCat("crash at op ", crash_at, " of ", total_ops));
    StorageFaultProfile profile;
    profile.seed = crash_at;
    FaultVfs vfs(profile);
    vfs.ScheduleCrashAtOp(crash_at);
    ASSERT_FALSE(run(&vfs, nullptr).ok());  // The injected crash fires.
    ASSERT_TRUE(vfs.crashed());
    vfs.CrashAndLose();

    Result<DurableWarehouse::Resumed> resumed =
        DurableWarehouse::Resume(&vfs, "wh");
    if (!resumed.ok()) {
      continue;  // Crash before the bootstrap checkpoint: nothing durable.
    }
    const uint64_t sequence = resumed->recovered.report.resume.sequence;
    auto oracle = digest_by_seq.find(sequence);
    ASSERT_NE(oracle, digest_by_seq.end())
        << "recovered to unknown sequence " << sequence;
    EXPECT_EQ(Fingerprint(*resumed->recovered.restored.warehouse),
              oracle->second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrashRecoveryPropertyTest,
    ::testing::Values(CatalogShape::kChain, CatalogShape::kKeyed,
                      CatalogShape::kKeyedInds),
    [](const ::testing::TestParamInfo<CatalogShape>& info) {
      return CatalogShapeName(info.param);
    });

}  // namespace
}  // namespace dwc
