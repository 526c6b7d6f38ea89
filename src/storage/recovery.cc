#include "storage/recovery.h"

#include <utility>
#include <vector>

#include "storage/wal.h"
#include "util/checksum.h"
#include "util/string_util.h"

namespace dwc {

namespace {

// True when (epoch, sequence) is the delta right after `last`: the same
// epoch's next sequence, or the first sequence of a later epoch.
bool Continues(uint64_t epoch, uint64_t sequence, const JournalStamp& last) {
  return (epoch == last.epoch && sequence == last.sequence + 1) ||
         (epoch > last.epoch && sequence == 1);
}

struct SegmentState {
  uint64_t id = 0;
  std::string path;
  WalSegmentScan scan;
};

// Scans consecutive segments starting at `wal_start` while they exist. A
// torn tail is legitimate only on the final segment: a tear mid-chain means
// a successor segment was created after data was already lost, which is a
// gap in committed history.
Result<std::vector<SegmentState>> ScanSegments(Vfs* vfs,
                                               const std::string& dir,
                                               uint64_t wal_start) {
  std::vector<SegmentState> segments;
  for (uint64_t id = wal_start;; ++id) {
    const std::string path = JoinPath(dir, WalSegmentName(id));
    DWC_ASSIGN_OR_RETURN(bool exists, vfs->Exists(path));
    if (!exists) {
      break;
    }
    SegmentState state;
    state.id = id;
    state.path = path;
    DWC_ASSIGN_OR_RETURN(state.scan, ScanWalSegment(vfs, path));
    segments.push_back(std::move(state));
  }
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i].scan.torn_tail) {
      return Status::FailedPrecondition(
          StrCat("WAL segment '", segments[i].path,
                 "' has a torn tail but is followed by segment ",
                 segments[i + 1].id,
                 ": committed history is missing; refusing to recover"));
    }
  }
  return segments;
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::string out = StrCat(
      "checkpoint id ", checkpoint_id, ", ", segments_scanned,
      " WAL segment(s), ", records_replayed, " record(s) replayed, ",
      records_skipped, " skipped");
  if (torn_tail) {
    out += StrCat(", torn tail truncated (", truncated_bytes, " byte(s))");
  }
  out += StrCat("; resume at epoch ", resume.epoch, " seq ", resume.sequence,
                ", segment ", next_segment_id);
  return out;
}

Result<RecoveredStorage> RecoveryManager::Recover(
    bool repair, MaintenanceStrategy strategy,
    const ComplementOptions& options) {
  RecoveredStorage out;
  DWC_ASSIGN_OR_RETURN(out.manifest, ReadManifest(vfs_, dir_));
  const Manifest& manifest = out.manifest;

  DWC_ASSIGN_OR_RETURN(
      std::string checkpoint_script,
      vfs_->ReadFile(JoinPath(dir_, manifest.checkpoint_file)));
  if (Crc32(checkpoint_script) != manifest.checkpoint_crc) {
    return Status::FailedPrecondition(
        StrCat("checkpoint '", manifest.checkpoint_file,
               "' fails its manifest checksum (want ",
               Crc32ToHex(manifest.checkpoint_crc), ", got ",
               Crc32ToHex(Crc32(checkpoint_script)),
               "): snapshot is damaged"));
  }

  DWC_ASSIGN_OR_RETURN(std::vector<SegmentState> segments,
                       ScanSegments(vfs_, dir_, manifest.wal_start));

  RecoveryReport& report = out.report;
  report.checkpoint_id = manifest.checkpoint_id;
  report.segments_scanned = segments.size();
  report.resume = manifest.stamp;
  report.next_segment_id = manifest.wal_start;
  report.next_segment_bytes = 0;

  // One pass over the log from the manifest stamp, checking continuity as
  // it goes. A data record must continue the previous stamp; a skip record
  // acknowledges a jump and may land anywhere past it; an unsequenced
  // record carries no watermark. A data record that does not continue
  // means deltas were lost, and replaying past it would silently diverge.
  std::string script = std::move(checkpoint_script);
  JournalStamp& last = report.resume;
  for (const SegmentState& segment : segments) {
    for (const WalRecord& record : segment.scan.records) {
      if (record.sequence != 0) {
        if (AtOrBelow(record.epoch, record.sequence, manifest.stamp)) {
          ++report.records_skipped;  // Already folded into the checkpoint.
          continue;
        }
        if (!record.is_skip() &&
            !Continues(record.epoch, record.sequence, last)) {
          if (last == manifest.stamp) {
            return Status::FailedPrecondition(StrCat(
                "WAL does not continue the checkpoint: checkpoint stamp is "
                "epoch ", last.epoch, " seq ", last.sequence,
                " but the first logged record is epoch ", record.epoch,
                " seq ", record.sequence,
                "; deltas between checkpoint and log were lost"));
          }
          return Status::FailedPrecondition(StrCat(
              "WAL has an internal sequence gap: record epoch ",
              record.epoch, " seq ", record.sequence, " in '", segment.path,
              "' follows epoch ", last.epoch, " seq ", last.sequence,
              "; a DELTA record between two surviving records was lost, "
              "refusing to replay a torn log"));
        }
        if (!AtOrBelow(record.epoch, record.sequence, last)) {
          last = {record.epoch, record.sequence};
        }
      }
      if (record.is_skip()) {
        ++report.records_skipped;
        continue;
      }
      script += record.payload;
      ++report.records_replayed;
      report.replayed_bytes += record.payload.size();
    }
    if (segment.scan.torn_tail) {
      report.torn_tail = true;
      report.truncated_bytes += segment.scan.truncated_bytes;
    }
  }
  if (!segments.empty()) {
    report.next_segment_id = segments.back().id;
    report.next_segment_bytes = segments.back().scan.valid_bytes;
  }

  DWC_ASSIGN_OR_RETURN(out.restored,
                       WarehouseFromScript(script, strategy, options));

  if (repair) {
    // Cut the torn tail off disk so a resumed writer appends to a clean
    // frame boundary.
    if (report.torn_tail) {
      const SegmentState& last_segment = segments.back();
      DWC_RETURN_IF_ERROR(
          vfs_->Truncate(last_segment.path, last_segment.scan.valid_bytes));
    }
    DWC_RETURN_IF_ERROR(SweepUnreferenced(vfs_, dir_, manifest));
  }
  return out;
}

Result<std::string> RecoveryManager::Inspect() {
  std::string out = StrCat("storage directory: ", dir_, "\n");
  Result<Manifest> manifest = ReadManifest(vfs_, dir_);
  if (!manifest.ok()) {
    return StrCat(out, "MANIFEST: UNREADABLE — ",
                  manifest.status().message(), "\n");
  }
  out += StrCat("MANIFEST: ok — checkpoint id ", manifest->checkpoint_id,
                ", stamp epoch ", manifest->stamp.epoch, " seq ",
                manifest->stamp.sequence, ", wal-start ",
                manifest->wal_start, "\n");

  Result<std::string> script =
      vfs_->ReadFile(JoinPath(dir_, manifest->checkpoint_file));
  if (!script.ok()) {
    out += StrCat("checkpoint ", manifest->checkpoint_file, ": MISSING — ",
                  script.status().message(), "\n");
  } else if (Crc32(*script) != manifest->checkpoint_crc) {
    out += StrCat("checkpoint ", manifest->checkpoint_file,
                  ": CORRUPT — crc ", Crc32ToHex(Crc32(*script)),
                  " does not match manifest crc ",
                  Crc32ToHex(manifest->checkpoint_crc), "\n");
  } else {
    out += StrCat("checkpoint ", manifest->checkpoint_file, ": ok (",
                  script->size(), " bytes, crc ",
                  Crc32ToHex(manifest->checkpoint_crc), ")\n");
  }

  for (uint64_t id = manifest->wal_start;; ++id) {
    const std::string path = JoinPath(dir_, WalSegmentName(id));
    DWC_ASSIGN_OR_RETURN(bool exists, vfs_->Exists(path));
    if (!exists) {
      if (id == manifest->wal_start) {
        out += "WAL: no segments (empty log)\n";
      }
      break;
    }
    Result<WalSegmentScan> scan = ScanWalSegment(vfs_, path);
    if (!scan.ok()) {
      out += StrCat("segment ", WalSegmentName(id), ": CORRUPT — ",
                    scan.status().message(), "\n");
      break;
    }
    uint64_t skips = 0;
    for (const WalRecord& record : scan->records) {
      if (record.is_skip()) ++skips;
    }
    out += StrCat("segment ", WalSegmentName(id), ": ",
                  scan->records.size(), " record(s) (", skips, " skip), ",
                  scan->valid_bytes, " clean byte(s)");
    if (scan->torn_tail) {
      out += StrCat(", TORN TAIL (", scan->truncated_bytes,
                    " byte(s) to truncate)");
    }
    if (!scan->records.empty()) {
      const WalRecord& last = scan->records.back();
      out += StrCat(", ends at epoch ", last.epoch, " seq ", last.sequence);
    }
    out += "\n";
  }
  return out;
}

}  // namespace dwc
