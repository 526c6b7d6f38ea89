#include "storage/checkpoint.h"

#include <cstdio>
#include <string_view>
#include <vector>

#include "util/checksum.h"
#include "util/string_util.h"

namespace dwc {

namespace {

// Parses "<token> " off the front of `line`, then a u64. Returns false on
// any mismatch.
bool EatToken(std::string_view* line, std::string_view token) {
  if (line->size() < token.size() ||
      line->compare(0, token.size(), token) != 0) {
    return false;
  }
  line->remove_prefix(token.size());
  while (!line->empty() && line->front() == ' ') {
    line->remove_prefix(1);
  }
  return true;
}

bool EatU64(std::string_view* line, uint64_t* value) {
  if (line->empty() || line->front() < '0' || line->front() > '9') {
    return false;
  }
  uint64_t v = 0;
  while (!line->empty() && line->front() >= '0' && line->front() <= '9') {
    v = v * 10 + static_cast<uint64_t>(line->front() - '0');
    line->remove_prefix(1);
  }
  while (!line->empty() && line->front() == ' ') {
    line->remove_prefix(1);
  }
  *value = v;
  return true;
}

bool EatWord(std::string_view* line, std::string* word) {
  size_t end = line->find(' ');
  if (end == 0 || line->empty()) {
    return false;
  }
  if (end == std::string_view::npos) {
    end = line->size();
  }
  word->assign(line->substr(0, end));
  line->remove_prefix(end);
  while (!line->empty() && line->front() == ' ') {
    line->remove_prefix(1);
  }
  return true;
}

Result<Manifest> ManifestError(std::string_view detail) {
  return Status::FailedPrecondition(
      StrCat("corrupt MANIFEST: ", detail));
}

// Writes `content` to <dir>/<name> via the atomic dance: the content hits a
// temp name, is fsync'd, renamed over the target, and the directory entry
// is fsync'd. A crash anywhere in the middle leaves either the old file or
// the new one, never a hybrid.
Status AtomicWrite(Vfs* vfs, const std::string& dir, const std::string& name,
                   std::string_view content) {
  const std::string tmp = JoinPath(dir, name + ".tmp");
  const std::string target = JoinPath(dir, name);
  DWC_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file, vfs->Create(tmp));
  DWC_RETURN_IF_ERROR(file->Append(content));
  DWC_RETURN_IF_ERROR(file->Sync());
  DWC_RETURN_IF_ERROR(file->Close());
  DWC_RETURN_IF_ERROR(vfs->Rename(tmp, target));
  return vfs->SyncDir(dir);
}

}  // namespace

std::string CheckpointFileName(uint64_t id) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "checkpoint-%016llu.dwc",
                static_cast<unsigned long long>(id));
  return buf;
}

std::string Manifest::Serialize() const {
  std::string body = StrCat(
      "dwc-manifest v1\n",
      "checkpoint ", checkpoint_file, " crc ", Crc32ToHex(checkpoint_crc),
      " id ", checkpoint_id, "\n",
      "stamp epoch ", stamp.epoch, " seq ", stamp.sequence, "\n",
      "wal-start ", wal_start, "\n");
  return StrCat(body, "crc ", Crc32ToHex(Crc32(body)), "\n");
}

Result<Manifest> Manifest::Parse(std::string_view text) {
  // Peel the trailing self-CRC line first; everything above it is covered.
  size_t crc_line = text.rfind("crc ");
  if (crc_line == std::string_view::npos ||
      (crc_line != 0 && text[crc_line - 1] != '\n')) {
    return ManifestError("missing trailing crc line");
  }
  std::string_view crc_hex = Trim(text.substr(crc_line + 4));
  uint32_t want = 0;
  if (!HexToCrc32(crc_hex, &want)) {
    return ManifestError("unparseable crc line");
  }
  std::string_view body = text.substr(0, crc_line);
  if (Crc32(body) != want) {
    return ManifestError("self-checksum mismatch (torn or rotted write)");
  }

  Manifest manifest;
  std::vector<std::string> lines = Split(std::string(body), '\n');
  if (lines.size() < 4 || Trim(lines[0]) != "dwc-manifest v1") {
    return ManifestError("bad header line");
  }
  {
    std::string_view line = lines[1];
    std::string crc_word;
    uint64_t id = 0;
    uint32_t file_crc = 0;
    if (!EatToken(&line, "checkpoint") ||
        !EatWord(&line, &manifest.checkpoint_file) ||
        !EatToken(&line, "crc") || !EatWord(&line, &crc_word) ||
        !HexToCrc32(crc_word, &file_crc) || !EatToken(&line, "id") ||
        !EatU64(&line, &id)) {
      return ManifestError("bad checkpoint line");
    }
    manifest.checkpoint_crc = file_crc;
    manifest.checkpoint_id = id;
  }
  {
    std::string_view line = lines[2];
    if (!EatToken(&line, "stamp") || !EatToken(&line, "epoch") ||
        !EatU64(&line, &manifest.stamp.epoch) || !EatToken(&line, "seq") ||
        !EatU64(&line, &manifest.stamp.sequence)) {
      return ManifestError("bad stamp line");
    }
  }
  {
    std::string_view line = lines[3];
    if (!EatToken(&line, "wal-start") || !EatU64(&line, &manifest.wal_start)) {
      return ManifestError("bad wal-start line");
    }
  }
  return manifest;
}

Result<Manifest> ReadManifest(Vfs* vfs, const std::string& dir) {
  DWC_ASSIGN_OR_RETURN(std::string text,
                       vfs->ReadFile(JoinPath(dir, kManifestName)));
  return Manifest::Parse(text);
}

Status WriteManifest(Vfs* vfs, const std::string& dir,
                     const Manifest& manifest) {
  return AtomicWrite(vfs, dir, kManifestName, manifest.Serialize());
}

Result<Manifest> WriteCheckpoint(Vfs* vfs, const std::string& dir,
                                 const std::string& script,
                                 uint64_t checkpoint_id,
                                 const JournalStamp& stamp,
                                 uint64_t wal_start) {
  Manifest manifest;
  manifest.checkpoint_id = checkpoint_id;
  manifest.checkpoint_file = CheckpointFileName(checkpoint_id);
  manifest.checkpoint_crc = Crc32(script);
  manifest.stamp = stamp;
  manifest.wal_start = wal_start;
  // The snapshot must be durable before the manifest names it; the manifest
  // commit (its own atomic rename) is the checkpoint's commit point.
  DWC_RETURN_IF_ERROR(
      AtomicWrite(vfs, dir, manifest.checkpoint_file, script));
  DWC_RETURN_IF_ERROR(WriteManifest(vfs, dir, manifest));
  return manifest;
}

Status SweepUnreferenced(Vfs* vfs, const std::string& dir,
                         const Manifest& manifest) {
  DWC_ASSIGN_OR_RETURN(std::vector<std::string> names, vfs->ListDir(dir));
  bool removed = false;
  for (const std::string& name : names) {
    bool keep = name == kManifestName || name == manifest.checkpoint_file;
    if (name.rfind("wal-", 0) == 0) {
      std::string_view digits(name);
      digits.remove_prefix(4);
      uint64_t id = 0;
      EatU64(&digits, &id);
      keep = id >= manifest.wal_start;
    }
    if (!keep) {
      DWC_RETURN_IF_ERROR(vfs->Remove(JoinPath(dir, name)));
      removed = true;
    }
  }
  if (removed) {
    DWC_RETURN_IF_ERROR(vfs->SyncDir(dir));
  }
  return Status::Ok();
}

}  // namespace dwc
