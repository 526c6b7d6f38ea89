#ifndef DWC_STORAGE_WAL_H_
#define DWC_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/vfs.h"
#include "util/result.h"
#include "warehouse/update.h"

namespace dwc {

// Segmented write-ahead log of committed deltas: the only delta log the
// system keeps. Each record is a framed DSL DELTA statement
// (parser/script_io.h DeltaToScript), so recovery appends the payloads to
// the checkpoint script and replays them through the interpreter, with its
// digest re-verification for free (storage/recovery.h).
//
// Record frame (little-endian):
//   u32 crc      CRC-32 over the remaining 20 header bytes + payload
//   u32 length   payload byte count (0 = a skip record: the sequence was
//                consumed by a resync or dedup and carries no statement)
//   u64 epoch    delivery-envelope epoch
//   u64 sequence delivery-envelope sequence (0 = unsequenced payload)
//   u8[length]   payload (DELTA statement text)
//
// The CRC covers the length field, so a torn or rotted header cannot send
// the scanner off into garbage: any record that does not checksum is either
// a torn tail (it touches end-of-file — truncate and recover) or mid-log
// corruption (bytes after it still parse or it is whole but damaged — fail
// loudly with segment + offset; see ScanWalSegment).
//
// Segments are "wal-<16-digit-id>.log", ids strictly increasing; each opens
// with an 8-byte magic preamble. The manifest (checkpoint.h) records the
// first live id; recovery scans ids upward while files exist.

inline constexpr char kWalMagic[] = "DWCWAL1\n";  // 8 bytes incl. newline.
inline constexpr size_t kWalMagicSize = 8;
inline constexpr size_t kWalHeaderSize = 24;
// Sanity bound on a single record; a "length" beyond this is corruption,
// not a huge record.
inline constexpr uint32_t kWalMaxRecordBytes = 64u << 20;

std::string WalSegmentName(uint64_t id);

// The delivery-envelope watermark a checkpoint was taken at: every delta
// with (epoch, sequence) at or below the stamp is folded into the snapshot.
// Epoch/sequence 0 means "nothing consumed yet" (a warehouse checkpointed
// before any sequenced delta arrived).
struct JournalStamp {
  uint64_t epoch = 0;
  uint64_t sequence = 0;

  bool operator==(const JournalStamp& other) const {
    return epoch == other.epoch && sequence == other.sequence;
  }
};

// True when (epoch, sequence) sorts at or below `stamp`: already covered,
// so it is neither logged again nor replayed.
inline bool AtOrBelow(uint64_t epoch, uint64_t sequence,
                      const JournalStamp& stamp) {
  if (epoch != stamp.epoch) {
    return epoch < stamp.epoch;
  }
  return sequence <= stamp.sequence;
}

// One framed record.
struct WalRecord {
  uint64_t epoch = 0;
  uint64_t sequence = 0;
  std::string payload;
  uint64_t offset = 0;  // Frame start offset within its segment.

  bool is_skip() const { return payload.empty(); }
};

// Renders the frame for (epoch, sequence, payload).
std::string EncodeWalRecord(uint64_t epoch, uint64_t sequence,
                            std::string_view payload);

// The outcome of scanning one segment. A scan never both truncates and
// errors: clean CRC failures *at end-of-file* are a torn tail (reported
// here, to be truncated away); anything else is returned as an error status
// by ScanWalSegment.
struct WalSegmentScan {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;      // Length of the clean prefix.
  uint64_t truncated_bytes = 0;  // Torn-tail bytes past the clean prefix.
  bool torn_tail = false;
};

// Scans a segment file: verifies the magic preamble and every record frame.
// Incomplete data at end-of-file (header or payload cut short, or a
// zero-filled/garbage tail that cannot possibly continue) is a torn tail:
// reported in the scan for truncation. A *complete* record whose CRC
// mismatches mid-file — valid frames follow it — is data loss in committed
// history; that fails loudly with the segment and byte offset.
Result<WalSegmentScan> ScanWalSegment(Vfs* vfs, const std::string& path);

// Append side. Writes are durable (fsync'd) per Append when
// `sync_each_record`, the default — the commit point of the storage layer.
struct WalWriterOptions {
  size_t segment_max_bytes = 256 << 10;
  bool sync_each_record = true;
};

class WalWriter {
 public:
  // Opens segment `segment_id` for appending, creating it (with magic
  // preamble) when absent — `existing_bytes` 0. To resume a recovered
  // segment pass its clean-prefix length (after torn-tail truncation).
  static Result<std::unique_ptr<WalWriter>> Open(Vfs* vfs, std::string dir,
                                                 uint64_t segment_id,
                                                 uint64_t existing_bytes,
                                                 WalWriterOptions options);

  // Appends one framed record; returns the framed byte count. Rolls into a
  // fresh segment first when the current one is over budget.
  Result<size_t> Append(uint64_t epoch, uint64_t sequence,
                        std::string_view payload);

  // Closes the current segment and opens segment `segment_id` (used by the
  // checkpoint protocol, which starts a fresh segment per checkpoint so old
  // ones can be deleted wholesale).
  Status RotateTo(uint64_t segment_id);

  uint64_t segment_id() const { return segment_id_; }
  uint64_t segment_bytes() const { return segment_bytes_; }
  uint64_t segments_rotated() const { return segments_rotated_; }

 private:
  WalWriter(Vfs* vfs, std::string dir, WalWriterOptions options)
      : vfs_(vfs), dir_(std::move(dir)), options_(options) {}

  Status OpenSegment(uint64_t segment_id, uint64_t existing_bytes);

  Vfs* vfs_;
  std::string dir_;
  WalWriterOptions options_;
  std::unique_ptr<VfsFile> file_;
  uint64_t segment_id_ = 0;
  uint64_t segment_bytes_ = 0;
  uint64_t segments_rotated_ = 0;
};

}  // namespace dwc

#endif  // DWC_STORAGE_WAL_H_
