#include "probe_vfs.h"

#include <string_view>

#include "trace.h"

namespace perfbench {

namespace {

bool IsWalPath(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string_view base(path);
  if (slash != std::string::npos) {
    base.remove_prefix(slash + 1);
  }
  return base.rfind("wal-", 0) == 0;
}

class ProbeFile : public dwc::VfsFile {
 public:
  ProbeFile(std::unique_ptr<dwc::VfsFile> inner, bool wal, ProbeVfs* probe)
      : inner_(std::move(inner)), wal_(wal), probe_(probe) {}

  dwc::Status Append(std::string_view data) override {
    Span span("storage.write");
    probe_->NoteAppend(wal_, data.size());
    return inner_->Append(data);
  }

  dwc::Status Sync() override {
    Span span("storage.fsync");
    return inner_->Sync();
  }

  dwc::Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<dwc::VfsFile> inner_;
  bool wal_;
  ProbeVfs* probe_;
};

}  // namespace

VfsCounts ProbeVfs::counts() const {
  VfsCounts counts;
  counts.wal_append_bytes = wal_append_bytes_.load();
  counts.checkpoint_append_bytes = checkpoint_append_bytes_.load();
  return counts;
}

void ProbeVfs::NoteAppend(bool wal, size_t bytes) {
  (wal ? wal_append_bytes_ : checkpoint_append_bytes_)
      .fetch_add(bytes, std::memory_order_relaxed);
}

dwc::Result<std::unique_ptr<dwc::VfsFile>> ProbeVfs::Create(
    const std::string& path) {
  auto file = posix_.Create(path);
  if (!file.ok()) {
    return file.status();
  }
  return std::unique_ptr<dwc::VfsFile>(std::make_unique<ProbeFile>(
      std::move(file).value(), IsWalPath(path), this));
}

dwc::Result<std::unique_ptr<dwc::VfsFile>> ProbeVfs::OpenAppend(
    const std::string& path) {
  auto file = posix_.OpenAppend(path);
  if (!file.ok()) {
    return file.status();
  }
  return std::unique_ptr<dwc::VfsFile>(std::make_unique<ProbeFile>(
      std::move(file).value(), IsWalPath(path), this));
}

dwc::Result<std::string> ProbeVfs::ReadFile(const std::string& path) {
  Span span("storage.read");
  dwc::Result<std::string> data = posix_.ReadFile(path);
  if (data.ok()) {
    span.Count("bytes", static_cast<double>(data.value().size()));
  }
  return data;
}

dwc::Status ProbeVfs::Truncate(const std::string& path, uint64_t size) {
  return posix_.Truncate(path, size);
}

dwc::Status ProbeVfs::Rename(const std::string& from, const std::string& to) {
  return posix_.Rename(from, to);
}

dwc::Status ProbeVfs::Remove(const std::string& path) {
  return posix_.Remove(path);
}

dwc::Status ProbeVfs::CreateDir(const std::string& dir) {
  return posix_.CreateDir(dir);
}

dwc::Status ProbeVfs::SyncDir(const std::string& dir) {
  Span span("storage.fsync");
  return posix_.SyncDir(dir);
}

dwc::Result<std::vector<std::string>> ProbeVfs::ListDir(
    const std::string& dir) {
  return posix_.ListDir(dir);
}

dwc::Result<bool> ProbeVfs::Exists(const std::string& path) {
  return posix_.Exists(path);
}

dwc::Result<uint64_t> ProbeVfs::FileSize(const std::string& path) {
  return posix_.FileSize(path);
}

}  // namespace perfbench
