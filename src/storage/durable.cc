#include "storage/durable.h"

#include <utility>

#include "parser/script_io.h"
#include "util/string_util.h"

namespace dwc {

std::string StorageStats::ToString() const {
  return StrCat("wal_appends=", wal_appends, " wal_skips=", wal_skips,
                " wal_bytes=", wal_bytes, " checkpoints=", checkpoints,
                " policy_checkpoints=", policy_checkpoints,
                " reset_checkpoints=", reset_checkpoints,
                " checkpoint_id=", checkpoint_id, " segment_id=", segment_id,
                " journal_bytes=", journal_bytes,
                " journal_records=", journal_records,
                " stamp=", stamp.epoch, ":", stamp.sequence,
                " last=", last.epoch, ":", last.sequence);
}

Result<std::unique_ptr<DurableWarehouse>> DurableWarehouse::Bootstrap(
    Vfs* vfs, std::string dir, Warehouse* warehouse, JournalStamp stamp,
    StorageOptions options) {
  DWC_RETURN_IF_ERROR(vfs->CreateDir(dir));
  std::unique_ptr<DurableWarehouse> durable(
      new DurableWarehouse(vfs, std::move(dir), warehouse, options));
  DWC_ASSIGN_OR_RETURN(std::string script, WarehouseToScript(*warehouse));
  DWC_ASSIGN_OR_RETURN(
      Manifest manifest,
      WriteCheckpoint(vfs, durable->dir_, script, /*checkpoint_id=*/1, stamp,
                      /*wal_start=*/1));
  durable->checkpoint_id_ = manifest.checkpoint_id;
  durable->stamp_ = stamp;
  durable->last_ = stamp;
  durable->checkpoints_ = 1;
  DWC_ASSIGN_OR_RETURN(
      durable->wal_,
      WalWriter::Open(vfs, durable->dir_, /*segment_id=*/1,
                      /*existing_bytes=*/0, options.wal));
  return durable;
}

Result<DurableWarehouse::Resumed> DurableWarehouse::Resume(
    Vfs* vfs, std::string dir, StorageOptions options,
    MaintenanceStrategy strategy, const ComplementOptions& complement_options) {
  Resumed resumed;
  RecoveryManager manager(vfs, dir);
  DWC_ASSIGN_OR_RETURN(
      resumed.recovered,
      manager.Recover(/*repair=*/true, strategy, complement_options));
  const RecoveredStorage& recovered = resumed.recovered;
  std::unique_ptr<DurableWarehouse> durable(new DurableWarehouse(
      vfs, std::move(dir), recovered.restored.warehouse.get(), options));
  durable->stamp_ = recovered.manifest.stamp;
  durable->pending_bytes_ = recovered.report.replayed_bytes;
  durable->pending_records_ = recovered.report.records_replayed;
  durable->last_ = recovered.report.resume;
  durable->checkpoint_id_ = recovered.manifest.checkpoint_id;
  durable->checkpoints_ = recovered.manifest.checkpoint_id;
  DWC_ASSIGN_OR_RETURN(
      durable->wal_,
      WalWriter::Open(vfs, durable->dir_, recovered.report.next_segment_id,
                      recovered.report.next_segment_bytes, options.wal));
  resumed.durable = std::move(durable);
  return resumed;
}

Status DurableWarehouse::Integrate(const CanonicalDelta& delta,
                                   Source* source) {
  DWC_RETURN_IF_ERROR(warehouse_->Integrate(delta, source));
  return Append(delta);
}

Status DurableWarehouse::Append(const CanonicalDelta& delta) {
  const std::string script = DeltaToScript(delta);
  DWC_ASSIGN_OR_RETURN(size_t framed,
                       wal_->Append(delta.epoch, delta.sequence, script));
  pending_bytes_ += script.size();
  ++pending_records_;
  if (delta.sequence != 0 &&
      !AtOrBelow(delta.epoch, delta.sequence, last_)) {
    last_ = {delta.epoch, delta.sequence};
  }
  ++wal_appends_;
  wal_bytes_ += framed;
  return MaybePolicyCheckpoint();
}

Status DurableWarehouse::NoteConsumed(uint64_t epoch, uint64_t sequence) {
  if (sequence == 0 || AtOrBelow(epoch, sequence, last_)) {
    return Status::Ok();  // Already covered by the log or the checkpoint.
  }
  DWC_ASSIGN_OR_RETURN(size_t framed, wal_->Append(epoch, sequence, ""));
  last_ = {epoch, sequence};
  ++wal_skips_;
  wal_bytes_ += framed;
  return MaybePolicyCheckpoint();
}

Status DurableWarehouse::Checkpoint() { return DoCheckpoint(last_); }

Status DurableWarehouse::OnCommit(const CommitEvent& event) {
  switch (event.kind) {
    case CommitEvent::Kind::kDelta:
      return Append(*event.delta);
    case CommitEvent::Kind::kSkip:
    case CommitEvent::Kind::kResync:
      // Both are acknowledged watermark movements whose effects are already
      // in the log (kResync's corrections arrived as kDelta events).
      return NoteConsumed(event.epoch, event.sequence);
    case CommitEvent::Kind::kReset: {
      // The rebuild came from source queries — nothing in the log can
      // reproduce it. Checkpoint the post-reset state immediately.
      JournalStamp stamp{event.epoch, event.sequence};
      if (AtOrBelow(stamp.epoch, stamp.sequence, last_)) {
        stamp = last_;
      }
      ++reset_checkpoints_;
      return DoCheckpoint(stamp);
    }
  }
  return Status::Internal("unhandled commit event kind");
}

void DurableWarehouse::Attach(DeltaIngestor* ingestor) {
  ingestor->set_commit_hook(
      [this](const CommitEvent& event) { return OnCommit(event); });
}

Status DurableWarehouse::MaybePolicyCheckpoint() {
  if (!options_.policy.ShouldCheckpoint(pending_bytes_, pending_records_)) {
    return Status::Ok();
  }
  ++policy_checkpoints_;
  return DoCheckpoint(last_);
}

Status DurableWarehouse::DoCheckpoint(JournalStamp stamp) {
  DWC_ASSIGN_OR_RETURN(std::string script, WarehouseToScript(*warehouse_));
  // Fresh segment first: the manifest about to be committed names it as
  // wal-start, and a manifest must never point at a segment the directory
  // does not durably hold.
  DWC_RETURN_IF_ERROR(wal_->RotateTo(wal_->segment_id() + 1));
  const uint64_t wal_start = wal_->segment_id();
  DWC_ASSIGN_OR_RETURN(
      Manifest manifest,
      WriteCheckpoint(vfs_, dir_, script, checkpoint_id_ + 1, stamp,
                      wal_start));
  checkpoint_id_ = manifest.checkpoint_id;
  stamp_ = stamp;
  last_ = stamp;
  pending_bytes_ = 0;
  pending_records_ = 0;
  ++checkpoints_;
  // The manifest no longer references the old checkpoint or the rotated
  // segments: sweep them.
  return SweepUnreferenced(vfs_, dir_, manifest);
}

StorageStats DurableWarehouse::stats() const {
  StorageStats stats;
  stats.wal_appends = wal_appends_;
  stats.wal_skips = wal_skips_;
  stats.wal_bytes = wal_bytes_;
  stats.checkpoints = checkpoints_;
  stats.policy_checkpoints = policy_checkpoints_;
  stats.reset_checkpoints = reset_checkpoints_;
  stats.checkpoint_id = checkpoint_id_;
  stats.segment_id = wal_ != nullptr ? wal_->segment_id() : 0;
  stats.journal_bytes = pending_bytes_;
  stats.journal_records = pending_records_;
  stats.stamp = stamp_;
  stats.last = last_;
  return stats;
}

}  // namespace dwc
