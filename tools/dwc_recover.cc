// dwc_recover: inspect and recover a dwc::storage directory.
//
//   dwc_recover [--inspect|--recover|--repair] <storage-dir>
//
//   --inspect  (default) Read-only structural report: manifest, checkpoint
//              checksum verdict, per-segment record counts and damage.
//              Never fails on damage — damage is what it is for.
//   --recover  Full recovery in dry-run mode: rebuild the warehouse from
//              checkpoint + WAL replay (digest-verified) but leave the
//              directory untouched. Proves the directory is recoverable.
//   --repair   Full recovery that also truncates torn tails on disk and
//              sweeps files the manifest no longer references.
//
// Exit status: 0 on success, 1 when recovery fails (corrupt committed
// history, bad checkpoint, stamp discontinuity), 2 on usage errors.
//
// CI runs `dwc_recover --inspect` over the disk a failing crash-matrix run
// exports (DWC_CRASH_DUMP_DIR) and uploads the report as an artifact.

#include <iostream>
#include <string>

#include "storage/recovery.h"
#include "storage/vfs.h"
#include "util/checksum.h"
#include "warehouse/warehouse.h"

namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: dwc_recover [--inspect|--recover|--repair] <storage-dir>\n";
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kInspect, kRecover, kRepair };
  Mode mode = Mode::kInspect;
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inspect") {
      mode = Mode::kInspect;
    } else if (arg == "--recover") {
      mode = Mode::kRecover;
    } else if (arg == "--repair") {
      mode = Mode::kRepair;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      PrintUsage(std::cerr);
      return 2;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      std::cerr << "only one storage directory may be given\n";
      PrintUsage(std::cerr);
      return 2;
    }
  }
  if (dir.empty()) {
    PrintUsage(std::cerr);
    return 2;
  }

  dwc::PosixVfs vfs;
  dwc::RecoveryManager manager(&vfs, dir);
  if (mode == Mode::kInspect) {
    dwc::Result<std::string> report = manager.Inspect();
    if (!report.ok()) {
      std::cerr << "inspect failed: " << report.status().ToString() << "\n";
      return 1;
    }
    std::cout << *report;
    // Resume-epoch preview. Snapshot epochs are process-local: whatever
    // delivery stamp the WAL carries, a warehouse resumed from this
    // directory publishes its single recovered state as snapshot epoch 1
    // and counts upward from there (DESIGN.md §12).
    std::cout << "resume preview: recovered state would publish as snapshot "
                 "epoch 1\n";
    return 0;
  }

  dwc::Result<dwc::RecoveredStorage> recovered =
      manager.Recover(/*repair=*/mode == Mode::kRepair);
  if (!recovered.ok()) {
    std::cerr << "recovery failed: " << recovered.status().ToString() << "\n";
    return 1;
  }
  std::cout << recovered->report.ToString() << "\n";
  std::cout << "snapshot epoch after resume: "
            << recovered->restored.warehouse->current_epoch() << "\n"
            << "epoch stats: "
            << recovered->restored.warehouse->epoch_stats().ToString()
            << "\n";
  std::cout << "recovered state fingerprint: "
            << dwc::DigestToHex(
                   dwc::StateDigest(recovered->restored.warehouse->state())
                       .Combined())
            << "\n";
  if (mode == Mode::kRepair) {
    std::cout << "directory repaired (torn tail truncated, garbage swept)\n";
  } else {
    std::cout << "dry run: directory left untouched\n";
  }
  return 0;
}
