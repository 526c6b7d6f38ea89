#ifndef DWC_STORAGE_CHECKPOINT_H_
#define DWC_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "storage/vfs.h"
#include "storage/wal.h"
#include "util/result.h"

namespace dwc {

// Atomic snapshot checkpoints of WarehouseToScript output, plus the MANIFEST
// that names the live snapshot and the first live WAL segment. Every state
// transition of the directory is write-temp → fsync → rename → fsync-dir,
// so at any crash point exactly one of {old manifest, new manifest} is what
// a reader sees — never a half-written one (and a half-written one would be
// caught by the manifest's own trailing CRC line anyway).
//
// MANIFEST format (text, line-oriented, self-checksummed):
//   dwc-manifest v1
//   checkpoint <file> crc <8-hex> id <n>
//   stamp epoch <n> seq <n>
//   wal-start <id>
//   crc <8-hex of everything above>

inline constexpr char kManifestName[] = "MANIFEST";

struct Manifest {
  uint64_t checkpoint_id = 0;
  std::string checkpoint_file;
  // CRC-32 of the checkpoint script file, re-verified at recovery.
  uint32_t checkpoint_crc = 0;
  // The delivery-envelope watermark folded into the snapshot: WAL replay
  // must continue from exactly here.
  JournalStamp stamp;
  // First live WAL segment; recovery scans ids upward from it.
  uint64_t wal_start = 1;

  std::string Serialize() const;
  static Result<Manifest> Parse(std::string_view text);
};

// Reads and validates <dir>/MANIFEST.
Result<Manifest> ReadManifest(Vfs* vfs, const std::string& dir);

// Atomically replaces <dir>/MANIFEST (temp + fsync + rename + fsync-dir).
Status WriteManifest(Vfs* vfs, const std::string& dir,
                     const Manifest& manifest);

// Durably writes `script` as checkpoint file `checkpoint-<id>.dwc` (temp +
// fsync + rename + fsync-dir) and then commits a manifest pointing at it
// with the given stamp and WAL start. Returns the committed manifest.
// Old checkpoints/segments are NOT deleted here — the caller sweeps them
// after the manifest commit (SweepUnreferenced), so a crash between the
// two steps only leaves ignorable garbage, never a manifest pointing at
// nothing.
Result<Manifest> WriteCheckpoint(Vfs* vfs, const std::string& dir,
                                 const std::string& script,
                                 uint64_t checkpoint_id,
                                 const JournalStamp& stamp,
                                 uint64_t wal_start);

std::string CheckpointFileName(uint64_t id);

// Removes every file in `dir` that `manifest` does not reference: temp
// files from a mid-write crash, and the checkpoints and WAL segments a
// manifest commit superseded. All garbage by construction — the manifest
// is the root of reachability, so a crash mid-sweep only leaves garbage
// for the next sweep.
Status SweepUnreferenced(Vfs* vfs, const std::string& dir,
                         const Manifest& manifest);

}  // namespace dwc

#endif  // DWC_STORAGE_CHECKPOINT_H_
