#ifndef DWC_WAREHOUSE_PERSISTENCE_H_
#define DWC_WAREHOUSE_PERSISTENCE_H_

#include <memory>
#include <string>

#include "util/result.h"
#include "warehouse/warehouse.h"

namespace dwc {

// Serializes a running warehouse into a DSL script (parser/script_io.h):
// catalog + constraints, the reconstructed base state (through W^-1 —
// Proposition 2.1 makes this exact), the view definitions and summary
// definitions. Running the script through RunScript / SpecifyWarehouse /
// Warehouse::Load reproduces an equivalent warehouse — a plain-text
// checkpoint format.
Result<std::string> WarehouseToScript(const Warehouse& warehouse);

// Rebuilds a warehouse (and its backing Source) from a checkpoint script.
// DELTA statements appended to the checkpoint (storage/recovery.h appends
// the WAL's payloads) are replayed in order, each re-verifying its
// piggybacked state digest, so a damaged log fails loudly.
struct RestoredWarehouse {
  std::shared_ptr<WarehouseSpec> spec;
  std::unique_ptr<Source> source;
  std::unique_ptr<Warehouse> warehouse;
};

Result<RestoredWarehouse> WarehouseFromScript(
    const std::string& script,
    MaintenanceStrategy strategy = MaintenanceStrategy::kIncremental,
    const ComplementOptions& options = ComplementOptions());

}  // namespace dwc

#endif  // DWC_WAREHOUSE_PERSISTENCE_H_
