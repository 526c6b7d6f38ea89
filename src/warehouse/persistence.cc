#include "warehouse/persistence.h"

#include "parser/interpreter.h"
#include "parser/script_io.h"

namespace dwc {

Result<std::string> WarehouseToScript(const Warehouse& warehouse) {
  // Complements and inverses are *derived* artifacts: only the catalog, the
  // base state (exactly recoverable through W^-1, Proposition 2.1), the view
  // definitions and the summary definitions need to be written.
  DWC_ASSIGN_OR_RETURN(Database bases, warehouse.ReconstructSources());
  std::string script = CatalogToScript(warehouse.spec().catalog());
  script += DatabaseToScript(bases);
  for (const ViewDef& view : warehouse.spec().views()) {
    script += ViewToScript(view);
  }
  // Aggregates are reachable through the evaluation environment: any bound
  // name that is not a warehouse relation is a summary table.
  Environment env = warehouse.Env();
  for (const auto& [name, rel] : env.bindings()) {
    (void)rel;
    if (warehouse.spec().FindWarehouseSchema(name) != nullptr) {
      continue;
    }
    const AggregateView* aggregate = warehouse.FindAggregate(name);
    if (aggregate != nullptr) {
      script += SummaryToScript(aggregate->def());
    }
  }
  return script;
}

Result<RestoredWarehouse> WarehouseFromScript(
    const std::string& script, MaintenanceStrategy strategy,
    const ComplementOptions& options) {
  DWC_ASSIGN_OR_RETURN(ScriptContext context, RunScript(script));
  DWC_RETURN_IF_ERROR(context.db.ValidateConstraints());
  DWC_ASSIGN_OR_RETURN(
      WarehouseSpec spec,
      SpecifyWarehouse(context.catalog, context.views, options));
  RestoredWarehouse restored;
  restored.spec = std::make_shared<WarehouseSpec>(std::move(spec));
  restored.source = std::make_unique<Source>(std::move(context.db));
  DWC_ASSIGN_OR_RETURN(
      Warehouse warehouse,
      Warehouse::Load(restored.spec, restored.source->db(), strategy));
  restored.warehouse = std::make_unique<Warehouse>(std::move(warehouse));
  for (const AggregateViewDef& def : context.summaries) {
    DWC_RETURN_IF_ERROR(restored.warehouse->AddAggregateView(def));
  }
  return restored;
}

}  // namespace dwc
