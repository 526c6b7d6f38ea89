#ifndef PERFBENCH_PROBE_VFS_H_
#define PERFBENCH_PROBE_VFS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/vfs.h"

namespace perfbench {

// Bytes the storage layer appended, split by file kind: WAL segments
// ("wal-*") against everything else (checkpoint snapshots, the manifest and
// their temp files).
struct VfsCounts {
  uint64_t wal_append_bytes = 0;
  uint64_t checkpoint_append_bytes = 0;
};

// A Vfs decorator that forwards every call to PosixVfs. It always counts
// appended bytes per file kind; with a tracer installed it also records a
// span per call that does I/O: `storage.write` per Append, `storage.fsync`
// per Sync/SyncDir and `storage.read` per ReadFile, tagged with the bytes
// read.
class ProbeVfs : public dwc::Vfs {
 public:
  ProbeVfs() = default;

  VfsCounts counts() const;

  dwc::Result<std::unique_ptr<dwc::VfsFile>> Create(
      const std::string& path) override;
  dwc::Result<std::unique_ptr<dwc::VfsFile>> OpenAppend(
      const std::string& path) override;
  dwc::Result<std::string> ReadFile(const std::string& path) override;
  dwc::Status Truncate(const std::string& path, uint64_t size) override;
  dwc::Status Rename(const std::string& from, const std::string& to) override;
  dwc::Status Remove(const std::string& path) override;
  dwc::Status CreateDir(const std::string& dir) override;
  dwc::Status SyncDir(const std::string& dir) override;
  dwc::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override;
  dwc::Result<bool> Exists(const std::string& path) override;
  dwc::Result<uint64_t> FileSize(const std::string& path) override;

  // Called by the file wrappers.
  void NoteAppend(bool wal, size_t bytes);

 private:
  dwc::PosixVfs posix_;
  std::atomic<uint64_t> wal_append_bytes_{0};
  std::atomic<uint64_t> checkpoint_append_bytes_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_VFS_H_
