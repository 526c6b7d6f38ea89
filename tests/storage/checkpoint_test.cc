// Atomic checkpoints, the self-checksummed manifest, and the recovery path
// over them: bootstrap → log → crash → resume, plus the two damage
// acceptance cases — a bit-corrupted committed WAL record fails loudly with
// segment + offset, and a torn tail is truncated cleanly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/warehouse_spec.h"
#include "parser/script_io.h"
#include "storage/checkpoint.h"
#include "storage/durable.h"
#include "storage/fault_vfs.h"
#include "storage/recovery.h"
#include "storage/wal.h"
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

TEST(ManifestTest, SerializeParseRoundTrip) {
  Manifest manifest;
  manifest.checkpoint_id = 7;
  manifest.checkpoint_file = CheckpointFileName(7);
  manifest.checkpoint_crc = 0xDEADBEEF;
  manifest.stamp = {3, 41};
  manifest.wal_start = 12;
  Result<Manifest> parsed = Manifest::Parse(manifest.Serialize());
  DWC_ASSERT_OK(parsed);
  EXPECT_EQ(parsed->checkpoint_id, 7u);
  EXPECT_EQ(parsed->checkpoint_file, manifest.checkpoint_file);
  EXPECT_EQ(parsed->checkpoint_crc, 0xDEADBEEFu);
  EXPECT_EQ(parsed->stamp, (JournalStamp{3, 41}));
  EXPECT_EQ(parsed->wal_start, 12u);
}

TEST(ManifestTest, SelfChecksumCatchesAnyDamage) {
  Manifest manifest;
  manifest.checkpoint_file = CheckpointFileName(1);
  manifest.stamp = {1, 5};
  std::string text = manifest.Serialize();
  for (size_t at = 0; at < text.size() - 1; ++at) {
    std::string damaged = text;
    damaged[at] ^= 0x10;
    EXPECT_FALSE(Manifest::Parse(damaged).ok()) << "flip at byte " << at;
  }
  // Truncations (torn manifest writes) are caught too.
  for (size_t keep : {size_t{0}, size_t{5}, text.size() / 2,
                      text.size() - 3}) {
    EXPECT_FALSE(Manifest::Parse(text.substr(0, keep)).ok())
        << "truncated to " << keep;
  }
}

class StorageRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    context_ = MustRun(Figure1Script(/*with_constraints=*/true));
    spec_ = std::make_shared<WarehouseSpec>(
        *SpecifyWarehouse(context_.catalog, context_.views));
    source_ = std::make_unique<Source>(context_.db, "s1");
    Result<Warehouse> warehouse = Warehouse::Load(spec_, source_->db());
    DWC_ASSERT_OK(warehouse);
    warehouse_ = std::make_unique<Warehouse>(std::move(warehouse).value());
  }

  // Bootstraps storage for the freshly loaded warehouse.
  std::unique_ptr<DurableWarehouse> MustBootstrap(
      StorageOptions options = StorageOptions()) {
    Result<std::unique_ptr<DurableWarehouse>> durable = DurableWarehouse::
        Bootstrap(&vfs_, "wh", warehouse_.get(),
                  JournalStamp{source_->epoch(), source_->last_sequence()},
                  options);
    EXPECT_TRUE(durable.ok()) << durable.status().ToString();
    return std::move(durable).value();
  }

  // Applies `op` at the source and integrates it durably.
  void MustIntegrate(DurableWarehouse* durable, const UpdateOp& op) {
    Result<CanonicalDelta> delta = source_->Apply(op);
    DWC_ASSERT_OK(delta);
    DWC_ASSERT_OK(durable->Integrate(*delta, source_.get()));
  }

  static uint64_t Fingerprint(const Warehouse& warehouse) {
    return StateDigest(warehouse.state()).Combined();
  }

  // Applies `op` at the source only; the caller decides what is logged.
  CanonicalDelta MustApply(const UpdateOp& op) {
    Result<CanonicalDelta> delta = source_->Apply(op);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    return std::move(delta).value();
  }

  // A fixed stream of ten Emp hires whose names (so DELTA statements)
  // grow by one character each.
  static std::vector<UpdateOp> HireStream() {
    std::vector<UpdateOp> ops;
    for (int i = 1; i <= 10; ++i) {
      const std::string name(i, static_cast<char>('a' + i));
      ops.push_back({"Emp", {T({S(name.c_str()), I(20 + i)})}, {}});
    }
    return ops;
  }

  // Integrates HireStream durably on a fresh warehouse and storage
  // directory and returns the (1-based) deltas after which the policy took
  // a checkpoint. With `crash_after` > 0 the process crashes after that
  // delta, and the stream goes on through the resumed instance, whose
  // policy must count the backlog it carried over.
  std::vector<int> PolicyCheckpointsAfter(const StorageOptions& options,
                                          int crash_after) {
    FaultVfs vfs;
    Source source(context_.db, "s1");
    Result<Warehouse> loaded = Warehouse::Load(spec_, source.db());
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    Warehouse warehouse = std::move(loaded).value();
    Result<std::unique_ptr<DurableWarehouse>> durable =
        DurableWarehouse::Bootstrap(
            &vfs, "wh", &warehouse,
            JournalStamp{source.epoch(), source.last_sequence()}, options);
    EXPECT_TRUE(durable.ok()) << durable.status().ToString();
    DurableWarehouse* live = durable->get();
    DurableWarehouse::Resumed resumed;
    std::vector<int> triggers;
    int index = 0;
    for (const UpdateOp& op : HireStream()) {
      ++index;
      Result<CanonicalDelta> delta = source.Apply(op);
      EXPECT_TRUE(delta.ok()) << delta.status().ToString();
      const uint64_t before = live->stats().policy_checkpoints;
      Status status = live->Integrate(*delta, &source);
      EXPECT_TRUE(status.ok()) << status.ToString();
      if (live->stats().policy_checkpoints > before) {
        triggers.push_back(index);
      }
      if (index == crash_after) {
        vfs.CrashAndLose();
        Result<DurableWarehouse::Resumed> result =
            DurableWarehouse::Resume(&vfs, "wh", options);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        resumed = std::move(result).value();
        live = resumed.durable.get();
      }
    }
    return triggers;
  }

  ScriptContext context_;
  std::shared_ptr<WarehouseSpec> spec_;
  std::unique_ptr<Source> source_;
  std::unique_ptr<Warehouse> warehouse_;
  FaultVfs vfs_;
};

TEST_F(StorageRecoveryTest, BootstrapThenResumeWithEmptyWal) {
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  const uint64_t fingerprint = Fingerprint(*warehouse_);
  vfs_.CrashAndLose();
  Result<DurableWarehouse::Resumed> resumed =
      DurableWarehouse::Resume(&vfs_, "wh");
  DWC_ASSERT_OK(resumed);
  EXPECT_EQ(Fingerprint(*resumed->recovered.restored.warehouse), fingerprint);
  EXPECT_EQ(resumed->recovered.report.records_replayed, 0u);
  // Replay is pure log application: zero source queries.
  EXPECT_EQ(resumed->recovered.restored.source->query_count(), 0u);
}

TEST_F(StorageRecoveryTest, LoggedDeltasSurviveACrash) {
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  MustIntegrate(durable.get(), {"Emp", {T({S("Nina"), I(27)})}, {}});
  MustIntegrate(durable.get(), {"Sale", {T({S("radio"), S("Nina")})}, {}});
  MustIntegrate(durable.get(),
                {"Sale", {T({S("tv"), S("Nina")})},
                 {T({S("PC"), S("John")})}});
  const uint64_t fingerprint = Fingerprint(*warehouse_);
  const StorageStats stats = durable->stats();
  EXPECT_EQ(stats.wal_appends, 3u);
  EXPECT_GT(stats.wal_bytes, 0u);
  vfs_.CrashAndLose();
  Result<DurableWarehouse::Resumed> resumed =
      DurableWarehouse::Resume(&vfs_, "wh");
  DWC_ASSERT_OK(resumed);
  EXPECT_EQ(resumed->recovered.report.records_replayed, 3u);
  EXPECT_EQ(Fingerprint(*resumed->recovered.restored.warehouse), fingerprint);
  EXPECT_EQ(resumed->recovered.restored.source->query_count(), 0u);
  EXPECT_EQ(resumed->durable->stats().last,
            (JournalStamp{source_->epoch(), source_->last_sequence()}));
  // The resumed instance keeps logging and checkpointing.
  Result<CanonicalDelta> more =
      source_->Apply({"Emp", {T({S("Omar"), I(31)})}, {}});
  DWC_ASSERT_OK(more);
  DWC_ASSERT_OK(resumed->durable->Integrate(*more, source_.get()));
  DWC_ASSERT_OK(resumed->durable->Checkpoint());
}

TEST_F(StorageRecoveryTest, PolicyCheckpointBoundsTheJournal) {
  StorageOptions options;
  options.policy.max_records = 2;
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap(options);
  MustIntegrate(durable.get(), {"Emp", {T({S("Nina"), I(27)})}, {}});
  MustIntegrate(durable.get(), {"Emp", {T({S("Omar"), I(31)})}, {}});
  MustIntegrate(durable.get(), {"Emp", {T({S("Pia"), I(29)})}, {}});
  const StorageStats stats = durable->stats();
  EXPECT_GE(stats.policy_checkpoints, 1u);
  EXPECT_LT(stats.journal_records, 2u);  // Policy kept the backlog bounded.
  // Recovery replays only the post-checkpoint suffix.
  const uint64_t fingerprint = Fingerprint(*warehouse_);
  vfs_.CrashAndLose();
  Result<DurableWarehouse::Resumed> resumed =
      DurableWarehouse::Resume(&vfs_, "wh");
  DWC_ASSERT_OK(resumed);
  EXPECT_LT(resumed->recovered.report.records_replayed, 2u);
  EXPECT_EQ(Fingerprint(*resumed->recovered.restored.warehouse), fingerprint);
}

TEST_F(StorageRecoveryTest, PolicyTriggersOnTheByteBound) {
  // The bound counts the DELTA statements' unframed bytes: two deltas'
  // statements fill it exactly. A probe source replays the same ops to
  // learn their sizes up front.
  Source probe(context_.db, "s1");
  const UpdateOp first = {"Emp", {T({S("Nina"), I(27)})}, {}};
  const UpdateOp second = {"Emp", {T({S("Omar"), I(31)})}, {}};
  Result<CanonicalDelta> probe_first = probe.Apply(first);
  Result<CanonicalDelta> probe_second = probe.Apply(second);
  DWC_ASSERT_OK(probe_first);
  DWC_ASSERT_OK(probe_second);
  const size_t first_bytes = DeltaToScript(*probe_first).size();
  StorageOptions options;
  options.policy.max_bytes =
      first_bytes + DeltaToScript(*probe_second).size();
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap(options);
  MustIntegrate(durable.get(), first);
  EXPECT_EQ(durable->stats().policy_checkpoints, 0u);
  EXPECT_EQ(durable->stats().journal_bytes, first_bytes);
  EXPECT_EQ(durable->stats().journal_records, 1u);
  MustIntegrate(durable.get(), second);
  EXPECT_EQ(durable->stats().policy_checkpoints, 1u);
  EXPECT_EQ(durable->stats().journal_bytes, 0u);
  EXPECT_EQ(durable->stats().journal_records, 0u);
}

TEST_F(StorageRecoveryTest, PolicyCadenceIsPinnedAcrossResume) {
  // The deltas after which the fixed stream triggers a policy checkpoint.
  // A crash mid-backlog must not move them: the resumed instance carries
  // the replayed records' bytes and count over into its policy.
  StorageOptions by_records;
  by_records.policy.max_records = 3;
  const std::vector<int> every_third = {3, 6, 9};
  EXPECT_EQ(PolicyCheckpointsAfter(by_records, /*crash_after=*/0),
            every_third);
  EXPECT_EQ(PolicyCheckpointsAfter(by_records, /*crash_after=*/4),
            every_third);
  EXPECT_EQ(PolicyCheckpointsAfter(by_records, /*crash_after=*/8),
            every_third);

  StorageOptions by_bytes;
  by_bytes.policy.max_bytes = 300;
  const std::vector<int> by_size = {4, 8};
  EXPECT_EQ(PolicyCheckpointsAfter(by_bytes, /*crash_after=*/0), by_size);
  EXPECT_EQ(PolicyCheckpointsAfter(by_bytes, /*crash_after=*/2), by_size);
  EXPECT_EQ(PolicyCheckpointsAfter(by_bytes, /*crash_after=*/6), by_size);
}

TEST_F(StorageRecoveryTest, CheckpointRotationSweepsOldSegmentsAndSnapshots) {
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  MustIntegrate(durable.get(), {"Emp", {T({S("Nina"), I(27)})}, {}});
  DWC_ASSERT_OK(durable->Checkpoint());
  MustIntegrate(durable.get(), {"Emp", {T({S("Omar"), I(31)})}, {}});
  Result<std::vector<std::string>> names = vfs_.ListDir("wh");
  DWC_ASSERT_OK(names);
  // Exactly one checkpoint, one manifest, one live segment: old ones are
  // garbage-collected at each checkpoint commit.
  size_t checkpoints = 0;
  size_t segments = 0;
  for (const std::string& name : *names) {
    checkpoints += name.rfind("checkpoint-", 0) == 0;
    segments += name.rfind("wal-", 0) == 0;
  }
  EXPECT_EQ(checkpoints, 1u);
  EXPECT_EQ(segments, 1u);
  EXPECT_EQ(durable->stats().checkpoint_id, 2u);
  EXPECT_EQ(durable->stats().segment_id, 2u);
}

TEST_F(StorageRecoveryTest, TornWalTailIsTruncatedCleanly) {
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  MustIntegrate(durable.get(), {"Emp", {T({S("Nina"), I(27)})}, {}});
  const uint64_t fingerprint = Fingerprint(*warehouse_);
  // A torn write at the tail: half a frame that never finished committing.
  const std::string segment = JoinPath("wh", WalSegmentName(1));
  std::string frame = EncodeWalRecord(1, 2, "never committed");
  Result<std::unique_ptr<VfsFile>> file = vfs_.OpenAppend(segment);
  DWC_ASSERT_OK(file);
  DWC_ASSERT_OK((*file)->Append(frame.substr(0, frame.size() / 2)));
  Result<uint64_t> dirty_size = vfs_.FileSize(segment);
  DWC_ASSERT_OK(dirty_size);
  Result<DurableWarehouse::Resumed> resumed =
      DurableWarehouse::Resume(&vfs_, "wh");
  DWC_ASSERT_OK(resumed);
  EXPECT_TRUE(resumed->recovered.report.torn_tail);
  EXPECT_EQ(resumed->recovered.report.truncated_bytes, frame.size() / 2);
  EXPECT_EQ(resumed->recovered.report.records_replayed, 1u);
  EXPECT_EQ(Fingerprint(*resumed->recovered.restored.warehouse), fingerprint);
  // Repair actually cut the tail off disk.
  Result<uint64_t> clean_size = vfs_.FileSize(segment);
  DWC_ASSERT_OK(clean_size);
  EXPECT_EQ(*clean_size, *dirty_size - frame.size() / 2);
}

TEST_F(StorageRecoveryTest, BitCorruptedCommittedRecordFailsLoudly) {
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  MustIntegrate(durable.get(), {"Emp", {T({S("Nina"), I(27)})}, {}});
  MustIntegrate(durable.get(), {"Emp", {T({S("Omar"), I(31)})}, {}});
  // Bit rot inside the FIRST record's payload — committed history, with a
  // valid record after it. Recovery must refuse, naming segment + offset.
  const std::string segment = JoinPath("wh", WalSegmentName(1));
  DWC_ASSERT_OK(vfs_.FlipBit(segment, kWalMagicSize + kWalHeaderSize + 4, 2));
  Result<DurableWarehouse::Resumed> resumed =
      DurableWarehouse::Resume(&vfs_, "wh");
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find(WalSegmentName(1)),
            std::string::npos)
      << resumed.status().message();
  EXPECT_NE(resumed.status().message().find("offset"), std::string::npos)
      << resumed.status().message();
}

TEST_F(StorageRecoveryTest, CorruptedCheckpointSnapshotFailsItsCrc) {
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  Result<Manifest> manifest = ReadManifest(&vfs_, "wh");
  DWC_ASSERT_OK(manifest);
  DWC_ASSERT_OK(
      vfs_.FlipBit(JoinPath("wh", manifest->checkpoint_file), 40, 1));
  Result<DurableWarehouse::Resumed> resumed =
      DurableWarehouse::Resume(&vfs_, "wh");
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("checksum"), std::string::npos)
      << resumed.status().message();
}

TEST_F(StorageRecoveryTest, WalNotContinuingTheStampIsRejected) {
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  // Forge a WAL whose first record pretends to be sequence 2 while the
  // checkpoint stamp is sequence 0: sequence 1 was lost somewhere.
  Result<CanonicalDelta> skipped =
      source_->Apply({"Emp", {T({S("Nina"), I(27)})}, {}});
  DWC_ASSERT_OK(skipped);
  Result<CanonicalDelta> forged =
      source_->Apply({"Emp", {T({S("Omar"), I(31)})}, {}});
  DWC_ASSERT_OK(forged);
  DWC_ASSERT_OK(durable->Append(*forged));
  Result<DurableWarehouse::Resumed> resumed =
      DurableWarehouse::Resume(&vfs_, "wh");
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("does not continue"),
            std::string::npos)
      << resumed.status().message();
}

TEST_F(StorageRecoveryTest, WalContinuingTheStampReplays) {
  // Checkpoint after the first delta, so a continuing log starts at the
  // sequence after the stamp.
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  MustIntegrate(durable.get(), {"Sale", {T({S("radio"), S("Mary")})}, {}});
  DWC_ASSERT_OK(durable->Checkpoint());
  // Forge the log: two deltas logged without being integrated.
  DWC_ASSERT_OK(
      durable->Append(MustApply({"Emp", {T({S("Nina"), I(27)})}, {}})));
  DWC_ASSERT_OK(
      durable->Append(MustApply({"Sale", {T({S("camera"), S("Paula")})}, {}})));
  Result<RecoveredStorage> recovered =
      RecoveryManager(&vfs_, "wh").Recover(/*repair=*/false);
  DWC_ASSERT_OK(recovered);
  EXPECT_EQ(recovered->report.records_replayed, 2u);
  EXPECT_EQ(recovered->report.resume,
            (JournalStamp{source_->epoch(), source_->last_sequence()}));
  DWC_ASSERT_OK(
      CheckConsistency(*recovered->restored.warehouse, source_->db()));
}

TEST_F(StorageRecoveryTest, WalWithAnInternalGapIsRejected) {
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  CanonicalDelta first = MustApply({"Sale", {T({S("radio"), S("Mary")})}, {}});
  MustApply({"Emp", {T({S("Nina"), I(27)})}, {}});  // Lost.
  CanonicalDelta third =
      MustApply({"Sale", {T({S("camera"), S("Paula")})}, {}});
  // The first record continues the stamp; the second skips a sequence.
  DWC_ASSERT_OK(durable->Append(first));
  DWC_ASSERT_OK(durable->Append(third));
  Result<DurableWarehouse::Resumed> resumed =
      DurableWarehouse::Resume(&vfs_, "wh");
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("gap"), std::string::npos)
      << resumed.status().message();
}

TEST_F(StorageRecoveryTest, WalCrossingIntoANewEpochAtSequenceOneReplays) {
  // A source restart opens a new epoch whose first delta is sequence 1:
  // the log continues across the boundary.
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  DWC_ASSERT_OK(
      durable->Append(MustApply({"Sale", {T({S("radio"), S("Mary")})}, {}})));
  const uint64_t old_epoch = source_->epoch();
  source_->BeginEpoch();
  DWC_ASSERT_OK(
      durable->Append(MustApply({"Emp", {T({S("Nina"), I(27)})}, {}})));
  Result<RecoveredStorage> recovered =
      RecoveryManager(&vfs_, "wh").Recover(/*repair=*/false);
  DWC_ASSERT_OK(recovered);
  EXPECT_EQ(recovered->report.records_replayed, 2u);
  EXPECT_EQ(recovered->report.resume, (JournalStamp{old_epoch + 1, 1}));
  DWC_ASSERT_OK(
      CheckConsistency(*recovered->restored.warehouse, source_->db()));
}

TEST_F(StorageRecoveryTest, WalEnteringANewEpochPastSequenceOneIsRejected) {
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  DWC_ASSERT_OK(
      durable->Append(MustApply({"Sale", {T({S("radio"), S("Mary")})}, {}})));
  source_->BeginEpoch();
  MustApply({"Emp", {T({S("Nina"), I(27)})}, {}});  // Lost: new epoch, seq 1.
  CanonicalDelta second = MustApply({"Emp", {T({S("Omar"), I(31)})}, {}});
  ASSERT_EQ(second.sequence, 2u);
  DWC_ASSERT_OK(durable->Append(second));
  Result<RecoveredStorage> recovered =
      RecoveryManager(&vfs_, "wh").Recover(/*repair=*/false);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(recovered.status().message().find("gap"), std::string::npos)
      << recovered.status().message();
}

TEST_F(StorageRecoveryTest, WalOpeningWithASkipRecordMayJumpPastTheStamp) {
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  MustIntegrate(durable.get(), {"Sale", {T({S("radio"), S("Mary")})}, {}});
  DWC_ASSERT_OK(durable->Checkpoint());
  const JournalStamp stamp = durable->stats().stamp;
  // Three sequences consumed with nothing to replay (a resync folded them
  // in), acknowledged by one skip record; then a data record continuing
  // the skip.
  for (const char* name : {"Nina", "Omar", "Pia"}) {
    MustApply({"Emp", {T({S(name), I(30)})}, {}});
  }
  DWC_ASSERT_OK(
      durable->NoteConsumed(source_->epoch(), source_->last_sequence()));
  DWC_ASSERT_OK(
      durable->Append(MustApply({"Sale", {T({S("camera"), S("Paula")})}, {}})));
  // A stale acknowledgment at the stamp is already folded into the
  // checkpoint: recovery skips it wherever it sits.
  const std::string segment =
      JoinPath("wh", WalSegmentName(durable->stats().segment_id));
  Result<std::unique_ptr<VfsFile>> file = vfs_.OpenAppend(segment);
  DWC_ASSERT_OK(file);
  DWC_ASSERT_OK(
      (*file)->Append(EncodeWalRecord(stamp.epoch, stamp.sequence, "")));
  DWC_ASSERT_OK((*file)->Sync());
  Result<RecoveredStorage> recovered =
      RecoveryManager(&vfs_, "wh").Recover(/*repair=*/false);
  DWC_ASSERT_OK(recovered);
  EXPECT_EQ(recovered->report.records_replayed, 1u);
  EXPECT_EQ(recovered->report.records_skipped, 2u);
  EXPECT_EQ(recovered->report.resume,
            (JournalStamp{source_->epoch(), source_->last_sequence()}));
}

TEST_F(StorageRecoveryTest, InspectDescribesTheDirectory) {
  std::unique_ptr<DurableWarehouse> durable = MustBootstrap();
  MustIntegrate(durable.get(), {"Emp", {T({S("Nina"), I(27)})}, {}});
  RecoveryManager manager(&vfs_, "wh");
  Result<std::string> inspect = manager.Inspect();
  DWC_ASSERT_OK(inspect);
  EXPECT_NE(inspect->find("MANIFEST: ok"), std::string::npos) << *inspect;
  EXPECT_NE(inspect->find("checkpoint-"), std::string::npos) << *inspect;
  EXPECT_NE(inspect->find("1 record(s)"), std::string::npos) << *inspect;
  // Inspect stays usable (and non-failing) on damage — that is its job.
  DWC_ASSERT_OK(
      vfs_.FlipBit(JoinPath("wh", WalSegmentName(1)), kWalMagicSize + 1, 1));
  MustIntegrate(durable.get(), {"Emp", {T({S("Omar"), I(31)})}, {}});
  Result<std::string> damaged = manager.Inspect();
  DWC_ASSERT_OK(damaged);
  EXPECT_NE(damaged->find("CORRUPT"), std::string::npos) << *damaged;
}

}  // namespace
}  // namespace dwc
