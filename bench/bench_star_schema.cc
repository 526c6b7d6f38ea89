// B5 / E13 (DESIGN.md): the Section 5 star-schema scenario at benchmark
// scale — initial load, the checkpoint text of the loaded warehouse, and
// fact-append refresh throughput across batch sizes, with zero source
// queries throughout.
//
// Expected shape: per-refresh latency grows sub-linearly with batch size
// (fixed per-refresh overhead amortizes), so tuples/s rises with the batch;
// load time scales with |Sales|.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "warehouse/persistence.h"
#include "workload/star_schema.h"

namespace dwc {
namespace bench {
namespace {

StarSchemaConfig BenchConfig(size_t sales) {
  StarSchemaConfig config;
  config.customers = 200;
  config.suppliers = 50;
  config.parts = 400;
  config.locations = 25;
  config.orders = sales / 4 + 16;
  config.sales = sales;
  return config;
}

void BM_InitialLoad(benchmark::State& state) {
  size_t sales = static_cast<size_t>(state.range(0));
  StarSchema star = Unwrap(BuildStarSchema(BenchConfig(sales)), "star");
  auto spec = std::make_shared<WarehouseSpec>(
      Unwrap(SpecifyWarehouse(star.catalog, star.views), "spec"));
  for (auto _ : state) {
    Warehouse warehouse = Unwrap(Warehouse::Load(spec, star.db), "load");
    benchmark::DoNotOptimize(warehouse);
  }
  state.counters["fact_tuples"] = static_cast<double>(sales);
}

void BM_SalesAppend(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  StarSchema star = Unwrap(BuildStarSchema(BenchConfig(6000)), "star");
  auto spec = std::make_shared<WarehouseSpec>(
      Unwrap(SpecifyWarehouse(star.catalog, star.views), "spec"));
  Source source(star.db);
  Warehouse warehouse = Unwrap(Warehouse::Load(spec, source.db()), "load");

  Rng rng(17);
  size_t refreshes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    UpdateOp op = Unwrap(GenerateSalesBatch(source.db(), batch, &rng), "gen");
    CanonicalDelta delta = Unwrap(source.Apply(op), "apply");
    state.ResumeTiming();

    Check(warehouse.Integrate(delta), "integrate");

    state.PauseTiming();
    UpdateOp undo;
    undo.relation = "Sales";
    undo.deletes = op.inserts;
    CanonicalDelta undo_delta = Unwrap(source.Apply(undo), "undo");
    Check(warehouse.Integrate(undo_delta), "undo integrate");
    state.ResumeTiming();
    ++refreshes;
  }
  state.counters["tuples_s"] = benchmark::Counter(
      static_cast<double>(batch) * static_cast<double>(refreshes),
      benchmark::Counter::kIsRate);
  state.counters["src_queries"] = static_cast<double>(source.query_count());
}

// The text a checkpoint writes (WarehouseToScript): the sources rebuilt
// through W^-1, then written as INSERT statements.
void BM_Checkpoint(benchmark::State& state) {
  size_t sales = static_cast<size_t>(state.range(0));
  StarSchema star = Unwrap(BuildStarSchema(BenchConfig(sales)), "star");
  auto spec = std::make_shared<WarehouseSpec>(
      Unwrap(SpecifyWarehouse(star.catalog, star.views), "spec"));
  Warehouse warehouse = Unwrap(Warehouse::Load(spec, star.db), "load");
  size_t bytes = 0;
  for (auto _ : state) {
    std::string script = Unwrap(WarehouseToScript(warehouse), "script");
    bytes = script.size();
    benchmark::DoNotOptimize(script);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}

BENCHMARK(BM_InitialLoad)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Checkpoint)->Arg(8000)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_SalesAppend)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// --json: fixed-iteration sweep written to BENCH_star_schema.json for CI
// artifact collection (the 32000-row load is skipped to keep the perf-smoke
// job fast; run the google-benchmark path for the full grid).
int Main(int argc, char** argv) {
  if (!JsonRequested(argc, argv)) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  std::vector<BenchRow> rows;
  for (size_t sales : {size_t{2000}, size_t{8000}}) {
    StarSchema star = Unwrap(BuildStarSchema(BenchConfig(sales)), "star");
    auto spec = std::make_shared<WarehouseSpec>(
        Unwrap(SpecifyWarehouse(star.catalog, star.views), "spec"));
    BenchRow row;
    row.name = StrCat("initial_load/sales=", sales);
    // Load materializes with the default evaluator options.
    row.threads = 1;
    row.latency = SummarizeLatencies(MeasureLatenciesUs(5, [&] {
      Warehouse warehouse = Unwrap(Warehouse::Load(spec, star.db), "load");
      benchmark::DoNotOptimize(warehouse);
    }));
    row.counters["fact_tuples"] = static_cast<double>(sales);
    rows.push_back(std::move(row));
    if (sales != 8000) {
      continue;
    }
    Warehouse warehouse = Unwrap(Warehouse::Load(spec, star.db), "load");
    BenchRow checkpoint;
    checkpoint.name = StrCat("checkpoint/sales=", sales);
    checkpoint.threads = 1;
    size_t bytes = 0;
    checkpoint.latency = SummarizeLatencies(MeasureLatenciesUs(5, [&] {
      std::string script = Unwrap(WarehouseToScript(warehouse), "script");
      bytes = script.size();
      benchmark::DoNotOptimize(script);
    }));
    checkpoint.counters["bytes"] = static_cast<double>(bytes);
    rows.push_back(std::move(checkpoint));
  }
  for (size_t batch : {size_t{1}, size_t{10}, size_t{100}, size_t{1000}}) {
    StarSchema star = Unwrap(BuildStarSchema(BenchConfig(6000)), "star");
    auto spec = std::make_shared<WarehouseSpec>(
        Unwrap(SpecifyWarehouse(star.catalog, star.views), "spec"));
    Source source(star.db);
    Warehouse warehouse = Unwrap(Warehouse::Load(spec, source.db()), "load");
    Rng rng(17);
    // Timed: the forward Integrate; untimed: batch generation and the
    // rollback keeping the database size fixed.
    std::vector<double> latencies;
    auto refresh = [&](bool timed) {
      UpdateOp op =
          Unwrap(GenerateSalesBatch(source.db(), batch, &rng), "gen");
      CanonicalDelta delta = Unwrap(source.Apply(op), "apply");
      auto start = std::chrono::steady_clock::now();
      Check(warehouse.Integrate(delta), "integrate");
      if (timed) {
        latencies.push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count());
      }
      UpdateOp undo;
      undo.relation = "Sales";
      undo.deletes = op.inserts;
      CanonicalDelta undo_delta = Unwrap(source.Apply(undo), "undo");
      Check(warehouse.Integrate(undo_delta), "undo integrate");
    };
    refresh(/*timed=*/false);
    for (int i = 0; i < 8; ++i) {
      refresh(/*timed=*/true);
    }
    BenchRow row;
    row.name = StrCat("sales_append/batch=", batch);
    row.threads = 1;
    row.latency = SummarizeLatencies(std::move(latencies));
    row.counters["tuples_s"] =
        row.latency.ops_per_sec * static_cast<double>(batch);
    row.counters["src_queries"] = static_cast<double>(source.query_count());
    rows.push_back(std::move(row));
  }
  PrintBenchRows(rows);
  WriteBenchJson("star_schema", rows);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dwc

int main(int argc, char** argv) { return dwc::bench::Main(argc, argv); }
