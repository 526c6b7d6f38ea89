// B2 (DESIGN.md): warehouse refresh latency per reported update, comparing
// the paper's complement-based incremental maintenance against the two
// baselines, across update batch size |Δ| and database scale.
//
// Expected shape (the paper's claim, Sections 4-5): incremental ≪ recompute
// for small |Δ|; all three converge as |Δ| approaches the database size;
// query-source is the only one whose source-query counter is nonzero.
//
// Columns: batch = |Δ| inserts into Sale, fact = |Sale| at load time.
// Counters: tuples_s = maintained tuples per second,
//           src_queries = source queries issued per refresh.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "exec/thread_pool.h"
#include "util/string_util.h"

namespace dwc {
namespace bench {
namespace {

void RunMaintenance(benchmark::State& state, MaintenanceStrategy strategy) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t fact = static_cast<size_t>(state.range(1));
  const size_t dim = fact / 8 + 4;

  ScaledFigure1 scenario(dim, fact, /*referential=*/true, /*seed=*/7);
  auto spec = std::make_shared<WarehouseSpec>(Unwrap(
      SpecifyWarehouse(scenario.catalog, scenario.views), "spec"));
  Source source(scenario.db);
  Warehouse warehouse =
      Unwrap(Warehouse::Load(spec, source.db(), strategy), "load");

  Rng rng(99);
  size_t refreshes = 0;
  size_t queries_before = source.query_count();
  for (auto _ : state) {
    state.PauseTiming();
    UpdateOp op = scenario.MakeInsertBatch(batch, &rng);
    CanonicalDelta delta = Unwrap(source.Apply(op), "apply");
    state.ResumeTiming();

    Check(warehouse.Integrate(delta, &source), "integrate");

    // Roll the update back (untimed) so every iteration sees the same
    // database size.
    state.PauseTiming();
    UpdateOp undo;
    undo.relation = "Sale";
    undo.deletes = op.inserts;
    CanonicalDelta undo_delta = Unwrap(source.Apply(undo), "undo");
    Check(warehouse.Integrate(undo_delta, &source), "undo integrate");
    state.ResumeTiming();
    ++refreshes;
  }
  state.counters["tuples_s"] = benchmark::Counter(
      static_cast<double>(batch) * static_cast<double>(refreshes),
      benchmark::Counter::kIsRate);
  state.counters["src_queries"] =
      refreshes == 0 ? 0.0
                     : static_cast<double>(source.query_count() -
                                           queries_before) /
                           (2.0 * static_cast<double>(refreshes));
}

void BM_Incremental(benchmark::State& state) {
  RunMaintenance(state, MaintenanceStrategy::kIncremental);
}
void BM_RecomputeFromInverse(benchmark::State& state) {
  RunMaintenance(state, MaintenanceStrategy::kRecomputeFromInverse);
}
void BM_QuerySource(benchmark::State& state) {
  RunMaintenance(state, MaintenanceStrategy::kQuerySource);
}

void Args(benchmark::internal::Benchmark* bench) {
  for (int64_t fact : {1000, 8000}) {
    for (int64_t batch : {1, 16, 256}) {
      bench->Args({batch, fact});
    }
  }
  bench->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_Incremental)->Apply(Args);
BENCHMARK(BM_RecomputeFromInverse)->Apply(Args);
BENCHMARK(BM_QuerySource)->Apply(Args);

// --json: fixed-iteration sweep over the same (strategy, batch, fact) grid,
// written to BENCH_maintenance.json. CI's perf-smoke job gates on the
// ops/sec of these rows (bench/check_bench_regression.py).
void JsonRow(MaintenanceStrategy strategy, const char* label, size_t batch,
             size_t fact, size_t iterations, std::vector<BenchRow>* rows) {
  const size_t dim = fact / 8 + 4;
  ScaledFigure1 scenario(dim, fact, /*referential=*/true, /*seed=*/7);
  auto spec = std::make_shared<WarehouseSpec>(
      Unwrap(SpecifyWarehouse(scenario.catalog, scenario.views), "spec"));
  Source source(scenario.db);
  Warehouse warehouse =
      Unwrap(Warehouse::Load(spec, source.db(), strategy), "load");

  Rng rng(99);
  size_t refreshes = 0;
  // Only the forward Integrate is timed; batch generation and the rollback
  // that keeps the database size fixed are bookkeeping (mirrors the
  // google-benchmark path's Pause/ResumeTiming).
  auto refresh = [&](bool timed, std::vector<double>* latencies) {
    UpdateOp op = scenario.MakeInsertBatch(batch, &rng);
    CanonicalDelta delta = Unwrap(source.Apply(op), "apply");
    auto start = std::chrono::steady_clock::now();
    Check(warehouse.Integrate(delta, &source), "integrate");
    if (timed) {
      latencies->push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start)
                               .count());
      ++refreshes;
    }
    UpdateOp undo;
    undo.relation = "Sale";
    undo.deletes = op.inserts;
    CanonicalDelta undo_delta = Unwrap(source.Apply(undo), "undo");
    Check(warehouse.Integrate(undo_delta, &source), "undo integrate");
  };
  refresh(/*timed=*/false, nullptr);  // Warmup.
  size_t queries_before = source.query_count();
  std::vector<double> latencies;
  for (size_t i = 0; i < iterations; ++i) {
    refresh(/*timed=*/true, &latencies);
  }
  LatencyStats stats = SummarizeLatencies(std::move(latencies));
  BenchRow row;
  row.name = StrCat(label, "/batch=", batch, "/fact=", fact);
  row.threads =
      ThreadPool::ResolveThreads(warehouse.evaluator_options().num_threads);
  row.latency = stats;
  row.counters["tuples_s"] =
      stats.ops_per_sec * static_cast<double>(batch);
  row.counters["src_queries"] =
      refreshes == 0
          ? 0.0
          : static_cast<double>(source.query_count() - queries_before) /
                (2.0 * static_cast<double>(refreshes));
  rows->push_back(std::move(row));
}

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
  struct StrategyRun {
    MaintenanceStrategy strategy;
    const char* label;
    size_t iterations;
  };
  const StrategyRun kRuns[] = {
      {MaintenanceStrategy::kIncremental, "incremental", 20},
      {MaintenanceStrategy::kRecomputeFromInverse, "recompute_inverse", 5},
      {MaintenanceStrategy::kQuerySource, "query_source", 5},
  };
  for (const StrategyRun& run : kRuns) {
    for (size_t fact : {size_t{1000}, size_t{8000}}) {
      for (size_t batch : {size_t{1}, size_t{16}, size_t{256}}) {
        JsonRow(run.strategy, run.label, batch, fact, run.iterations, &rows);
      }
    }
  }
  PrintBenchRows(rows);
  WriteBenchJson("maintenance", rows);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dwc

int main(int argc, char** argv) { return dwc::bench::Main(argc, argv); }
