#ifndef DWC_STORAGE_RECOVERY_H_
#define DWC_STORAGE_RECOVERY_H_

#include <cstdint>
#include <string>

#include "storage/checkpoint.h"
#include "storage/vfs.h"
#include "util/result.h"
#include "warehouse/persistence.h"

namespace dwc {

// What recovery did, in numbers. Surfaced by the REPL (`storage stats`),
// dwc_recover, and the crash-matrix tests.
struct RecoveryReport {
  uint64_t checkpoint_id = 0;
  uint64_t segments_scanned = 0;
  // Sequenced + unsequenced DELTA statements replayed through the
  // interpreter (each re-verifying its piggybacked digest).
  uint64_t records_replayed = 0;
  // Their unframed payload bytes. With records_replayed and `resume`, this
  // is the backlog a resumed DurableWarehouse's checkpoint policy carries.
  uint64_t replayed_bytes = 0;
  // Skip records (resync/dedup watermarks) plus records already folded
  // into the checkpoint (at or below its stamp).
  uint64_t records_skipped = 0;
  // Torn-tail bytes cut off the last segment.
  uint64_t truncated_bytes = 0;
  bool torn_tail = false;
  // Where the log ends: the stamp a resumed writer must continue from.
  JournalStamp resume;
  // The segment a resumed WalWriter appends to, and its clean length.
  uint64_t next_segment_id = 0;
  uint64_t next_segment_bytes = 0;

  std::string ToString() const;
};

struct RecoveredStorage {
  Manifest manifest;
  RestoredWarehouse restored;
  RecoveryReport report;
};

// Brings a storage directory back to the last committed state: manifest →
// checkpoint (CRC re-verified) → WAL segments (each frame CRC-verified,
// torn tail truncated, mid-log corruption refused) → stamp-continuity check
// → interpreter replay of checkpoint + payloads with digest
// re-verification. Replay is pure log application — it never queries the
// source (the crash-matrix test asserts this).
class RecoveryManager {
 public:
  RecoveryManager(Vfs* vfs, std::string dir)
      : vfs_(vfs), dir_(std::move(dir)) {}

  // Full recovery. `repair` additionally truncates torn tails on disk and
  // removes files the manifest no longer references (pre-crash temp files,
  // superseded checkpoints/segments); without it the directory is left
  // untouched — a read-only recovery.
  Result<RecoveredStorage> Recover(
      bool repair = true,
      MaintenanceStrategy strategy = MaintenanceStrategy::kIncremental,
      const ComplementOptions& options = ComplementOptions());

  // Read-only structural report for `dwc_recover --inspect`: manifest,
  // checkpoint checksum verdict, per-segment record counts and damage.
  // Unlike Recover this does not rebuild the warehouse and does not fail
  // on damage — damage is what it is for.
  Result<std::string> Inspect();

 private:
  Vfs* vfs_;
  std::string dir_;
};

}  // namespace dwc

#endif  // DWC_STORAGE_RECOVERY_H_
