#ifndef DWC_STORAGE_DURABLE_H_
#define DWC_STORAGE_DURABLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "storage/recovery.h"
#include "storage/vfs.h"
#include "storage/wal.h"
#include "util/result.h"
#include "warehouse/ingest.h"

namespace dwc {

// Checkpoint-trigger policy over the WAL written since the live checkpoint:
// when either bound is reached, DurableWarehouse folds the log into a fresh
// checkpoint. Bounds the log's disk footprint and — since recovery time is
// linear in log length (EXPERIMENTS.md B10) — the recovery time. Bytes are
// the DELTA statements' unframed payload bytes; records count data records
// only (skip records carry no payload).
struct JournalPolicy {
  size_t max_bytes = 1 << 20;
  size_t max_records = 1024;

  bool ShouldCheckpoint(uint64_t bytes, uint64_t records) const {
    return bytes >= max_bytes || records >= max_records;
  }
};

struct StorageOptions {
  JournalPolicy policy;
  WalWriterOptions wal;
};

// A live snapshot of the storage layer, for `storage stats` and tests.
struct StorageStats {
  uint64_t wal_appends = 0;        // Data records written.
  uint64_t wal_skips = 0;          // Skip (watermark) records written.
  uint64_t wal_bytes = 0;          // Framed bytes appended since open.
  uint64_t checkpoints = 0;        // Total checkpoints committed.
  uint64_t policy_checkpoints = 0; // Triggered by JournalPolicy.
  uint64_t reset_checkpoints = 0;  // Forced by a kReset commit event.
  uint64_t checkpoint_id = 0;      // Live checkpoint id.
  uint64_t segment_id = 0;         // Live WAL segment id.
  uint64_t journal_bytes = 0;      // WAL payload bytes since the checkpoint.
  uint64_t journal_records = 0;    // WAL data records since the checkpoint.
  JournalStamp stamp;              // The live checkpoint's stamp.
  JournalStamp last;               // Last consumed (epoch, sequence).

  std::string ToString() const;
};

// Durability for one warehouse over one storage directory: every committed
// state transition is fsync'd into the WAL before the call that caused it
// returns, and the JournalPolicy folds the log into a fresh atomic
// checkpoint before it grows unbounded. Non-owning over the warehouse.
//
// Two ways in:
//   Bootstrap — first boot: checkpoint the warehouse as-is, start segment 1.
//   Resume    — after a crash: RecoveryManager replays the directory, then
//               the writer picks up at the exact torn-tail-truncated byte.
//
// Wire to a DeltaIngestor with Attach (or call Integrate directly): the
// ingestor's CommitEvents drive Append / NoteConsumed / Checkpoint.
class DurableWarehouse {
 public:
  // Checkpoints `warehouse` into `dir` (created if missing) as checkpoint 1
  // and opens WAL segment 1. `stamp` is the delivery watermark the
  // warehouse state already reflects — (source->epoch(),
  // source->last_sequence()) when attaching at load time.
  static Result<std::unique_ptr<DurableWarehouse>> Bootstrap(
      Vfs* vfs, std::string dir, Warehouse* warehouse, JournalStamp stamp,
      StorageOptions options = StorageOptions());

  struct Resumed {
    RecoveredStorage recovered;  // Owns the rebuilt warehouse.
    std::unique_ptr<DurableWarehouse> durable;
  };

  // Recovers `dir` (repairing torn tails and sweeping unreferenced files)
  // and resumes logging where the clean WAL prefix ended.
  static Result<Resumed> Resume(
      Vfs* vfs, std::string dir, StorageOptions options = StorageOptions(),
      MaintenanceStrategy strategy = MaintenanceStrategy::kIncremental,
      const ComplementOptions& complement_options = ComplementOptions());

  // Integrate-then-log, for driving the warehouse directly (the REPL path).
  // The delta is durable by the time this returns.
  Status Integrate(const CanonicalDelta& delta, Source* source);

  // Logs an already-integrated delta (the commit hook's kDelta path).
  Status Append(const CanonicalDelta& delta);

  // Logs an acknowledged watermark jump: (epoch, sequence) was consumed
  // with no record to replay. Stale notes (at or below what the log
  // already covers) are ignored.
  Status NoteConsumed(uint64_t epoch, uint64_t sequence);

  // Takes a checkpoint now, regardless of policy.
  Status Checkpoint();

  // The DeltaIngestor durability hook (see warehouse/ingest.h CommitEvent).
  Status OnCommit(const CommitEvent& event);

  // Installs OnCommit as `ingestor`'s commit hook. This object must outlive
  // the ingestor (or the hook must be cleared first).
  void Attach(DeltaIngestor* ingestor);

  StorageStats stats() const;
  const std::string& dir() const { return dir_; }
  Warehouse* warehouse() const { return warehouse_; }

 private:
  DurableWarehouse(Vfs* vfs, std::string dir, Warehouse* warehouse,
                   StorageOptions options)
      : vfs_(vfs),
        dir_(std::move(dir)),
        warehouse_(warehouse),
        options_(options) {}

  // Checkpoint protocol: rotate the WAL into a fresh segment, write the
  // snapshot + manifest (atomic), then garbage-collect everything the new
  // manifest no longer references.
  Status DoCheckpoint(JournalStamp stamp);
  Status MaybePolicyCheckpoint();

  Vfs* vfs_;
  std::string dir_;
  Warehouse* warehouse_;
  StorageOptions options_;
  std::unique_ptr<WalWriter> wal_;
  JournalStamp stamp_;  // Stamp of the live (manifest) checkpoint.
  // The WAL since the live checkpoint, as the policy and the next
  // checkpoint read it: unframed payload bytes, data records, and the last
  // consumed (epoch, sequence) — the stamp a checkpoint taken now carries,
  // `stamp_` while nothing has been consumed.
  uint64_t pending_bytes_ = 0;
  uint64_t pending_records_ = 0;
  JournalStamp last_;
  uint64_t checkpoint_id_ = 0;
  uint64_t wal_appends_ = 0;
  uint64_t wal_skips_ = 0;
  uint64_t wal_bytes_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t policy_checkpoints_ = 0;
  uint64_t reset_checkpoints_ = 0;
};

}  // namespace dwc

#endif  // DWC_STORAGE_DURABLE_H_
