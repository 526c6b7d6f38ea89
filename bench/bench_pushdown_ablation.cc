// B7 (ablation, see DESIGN.md): what the evaluator's semijoin pushdown is
// worth. The same maintenance expression — the Example 4.1 shape
// Δ+Sold = ins:Sale |x| (C_Emp ∪ π(Sold)) — is evaluated with and without
// pushdown across database sizes.
//
// Expected shape: with pushdown the cost is O(|Δ|) (flat across database
// sizes); without, every refresh pays an O(|DB|) reconstruction scan. This
// isolates the mechanism behind B2's incremental-vs-recompute gap.

#include <benchmark/benchmark.h>

#include "algebra/evaluator.h"
#include "bench/bench_common.h"
#include "maintenance/plan.h"

namespace dwc {
namespace bench {
namespace {

void RunAblation(benchmark::State& state, EvaluatorOptions options,
                 size_t batch, size_t fact) {
  ScaledFigure1 scenario(fact / 8 + 4, fact, /*referential=*/true, 7);
  auto spec = std::make_shared<WarehouseSpec>(
      Unwrap(SpecifyWarehouse(scenario.catalog, scenario.views), "spec"));
  Source source(scenario.db);
  Warehouse warehouse = Unwrap(Warehouse::Load(spec, source.db()), "load");
  MaintenancePlan plan = Unwrap(DeriveMaintenancePlan(*spec), "plan");
  const DeltaPair* sold_plan = plan.Find("Sold", "Sale");
  Check(sold_plan == nullptr
            ? Status::Internal("missing Sold/Sale plan")
            : Status::Ok(),
        "plan lookup");

  Rng rng(5);
  UpdateOp op = scenario.MakeInsertBatch(batch, &rng);
  CanonicalDelta delta = Unwrap(source.Apply(op), "apply");

  Environment env = warehouse.Env();
  env.Bind("ins:Sale", &delta.inserts);
  env.Bind("del:Sale", &delta.deletes);

  size_t out = 0;
  size_t pushdown_joins = 0;
  for (auto _ : state) {
    Evaluator evaluator(&env, options);
    Relation plus = Unwrap(evaluator.Materialize(*sold_plan->plus), "plus");
    out = plus.size();
    pushdown_joins = evaluator.stats().pushdown_joins;
    benchmark::DoNotOptimize(plus);
  }
  state.counters["delta_out"] = static_cast<double>(out);
  state.counters["pushdown_joins"] = static_cast<double>(pushdown_joins);
}

void BM_WithPushdown(benchmark::State& state) {
  EvaluatorOptions options;
  RunAblation(state, options, static_cast<size_t>(state.range(0)),
              static_cast<size_t>(state.range(1)));
}
void BM_WithoutPushdown(benchmark::State& state) {
  EvaluatorOptions options;
  options.enable_pushdown = false;
  RunAblation(state, options, static_cast<size_t>(state.range(0)),
              static_cast<size_t>(state.range(1)));
}

void Args(benchmark::internal::Benchmark* bench) {
  for (int64_t fact : {1000, 8000, 32000}) {
    for (int64_t batch : {1, 64}) {
      bench->Args({batch, fact});
    }
  }
  bench->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_WithPushdown)->Apply(Args);
BENCHMARK(BM_WithoutPushdown)->Apply(Args);

}  // namespace
}  // namespace bench
}  // namespace dwc

BENCHMARK_MAIN();
