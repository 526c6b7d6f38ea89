// B6 (extension, see EXPERIMENTS.md): summary-table maintenance cost — the
// Section 5 OLAP layer. Compares incremental folding of source deltas
// against re-aggregating the fact view from scratch, across batch sizes.
//
// Expected shape: like B2, incremental aggregate upkeep is O(|Δ|) while
// re-aggregation is O(|fact|). MIN/MAX keep per-group value counts, so a
// deleted group extremum costs no more than any other delete: the
// delete-heavy rows track the insert-only rows.

#include <benchmark/benchmark.h>

#include "aggregate/aggregate_view.h"
#include "bench/bench_common.h"
#include "exec/thread_pool.h"
#include "util/string_util.h"
#include "workload/star_schema.h"
#include "workload/update_stream.h"

namespace dwc {
namespace bench {
namespace {

AggregateViewDef SummaryDef() {
  AggregateViewDef def;
  def.name = "UnitsByRegion";
  def.source = Expr::Base("FactSales");
  def.group_by = {"supp_region"};
  def.aggregates = {{AggFunc::kCount, "", "n_sales"},
                    {AggFunc::kSum, "quantity", "units"},
                    {AggFunc::kMax, "quantity", "biggest"}};
  return def;
}

struct Fixture {
  StarSchema star;
  std::shared_ptr<WarehouseSpec> spec;
  Source source;
  Warehouse warehouse;

  explicit Fixture(size_t sales)
      : star([&] {
          StarSchemaConfig config;
          config.orders = sales / 4 + 16;
          config.sales = sales;
          return Unwrap(BuildStarSchema(config), "star");
        }()),
        spec(std::make_shared<WarehouseSpec>(
            Unwrap(SpecifyWarehouse(star.catalog, star.views), "spec"))),
        source(star.db),
        warehouse(Unwrap(Warehouse::Load(spec, source.db()), "load")) {}
};

void BM_IncrementalAggregate(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  Fixture fixture(6000);
  Check(fixture.warehouse.AddAggregateView(SummaryDef()), "agg");

  Rng rng(23);
  size_t refreshes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    UpdateOp op =
        Unwrap(GenerateSalesBatch(fixture.source.db(), batch, &rng), "gen");
    CanonicalDelta delta = Unwrap(fixture.source.Apply(op), "apply");
    state.ResumeTiming();

    Check(fixture.warehouse.Integrate(delta), "integrate");

    state.PauseTiming();
    UpdateOp undo;
    undo.relation = "Sales";
    undo.deletes = op.inserts;
    CanonicalDelta undo_delta = Unwrap(fixture.source.Apply(undo), "undo");
    Check(fixture.warehouse.Integrate(undo_delta), "undo integrate");
    state.ResumeTiming();
    ++refreshes;
  }
  state.counters["tuples_s"] = benchmark::Counter(
      static_cast<double>(batch) * static_cast<double>(refreshes),
      benchmark::Counter::kIsRate);
}

void BM_ReaggregateFromScratch(benchmark::State& state) {
  // The baseline: rebuild the summary from the fact view per refresh.
  Fixture fixture(6000);
  SchemaResolver resolver = fixture.spec->WarehouseResolver();
  AggregateView view =
      Unwrap(AggregateView::Create(SummaryDef(), resolver), "create");
  Environment env = fixture.warehouse.Env();
  for (auto _ : state) {
    Check(view.Initialize(env), "init");
    benchmark::DoNotOptimize(view.materialized());
  }
  state.counters["fact_tuples"] =
      static_cast<double>(fixture.warehouse.FindRelation("FactSales")->size());
}

void BM_DeleteHeavyAggregate(benchmark::State& state) {
  // Deletions hit group extrema, which the value counts absorb.
  Fixture fixture(6000);
  Check(fixture.warehouse.AddAggregateView(SummaryDef()), "agg");
  Rng rng(29);
  size_t batch = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    // Delete `batch` random sales, then reinsert them (untimed).
    std::vector<Tuple> victims;
    {
      const Relation* sales = fixture.source.db().FindRelation("Sales");
      auto it = sales->tuples().begin();
      std::advance(it, rng.Below(sales->size() - batch));
      for (size_t i = 0; i < batch; ++i, ++it) {
        victims.push_back(*it);
      }
    }
    UpdateOp del{"Sales", {}, victims};
    CanonicalDelta delta = Unwrap(fixture.source.Apply(del), "apply");
    state.ResumeTiming();

    Check(fixture.warehouse.Integrate(delta), "integrate");

    state.PauseTiming();
    UpdateOp redo{"Sales", victims, {}};
    CanonicalDelta redo_delta = Unwrap(fixture.source.Apply(redo), "redo");
    Check(fixture.warehouse.Integrate(redo_delta), "redo integrate");
    state.ResumeTiming();
  }
}

BENCHMARK(BM_IncrementalAggregate)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReaggregateFromScratch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DeleteHeavyAggregate)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// --json: fixed-iteration sweep written to BENCH_aggregates.json for CI
// artifact collection.
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
  for (size_t batch : {size_t{1}, size_t{10}, size_t{100}}) {
    Fixture fixture(6000);
    Check(fixture.warehouse.AddAggregateView(SummaryDef()), "agg");
    Rng rng(23);
    std::vector<double> latencies;
    auto refresh = [&](bool timed) {
      UpdateOp op =
          Unwrap(GenerateSalesBatch(fixture.source.db(), batch, &rng), "gen");
      CanonicalDelta delta = Unwrap(fixture.source.Apply(op), "apply");
      auto start = std::chrono::steady_clock::now();
      Check(fixture.warehouse.Integrate(delta), "integrate");
      if (timed) {
        latencies.push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count());
      }
      UpdateOp undo;
      undo.relation = "Sales";
      undo.deletes = op.inserts;
      CanonicalDelta undo_delta = Unwrap(fixture.source.Apply(undo), "undo");
      Check(fixture.warehouse.Integrate(undo_delta), "undo integrate");
    };
    refresh(/*timed=*/false);
    for (int i = 0; i < 8; ++i) {
      refresh(/*timed=*/true);
    }
    BenchRow row;
    row.name = StrCat("incremental_aggregate/batch=", batch);
    row.threads = ThreadPool::ResolveThreads(
        fixture.warehouse.evaluator_options().num_threads);
    row.latency = SummarizeLatencies(std::move(latencies));
    row.counters["tuples_s"] =
        row.latency.ops_per_sec * static_cast<double>(batch);
    rows.push_back(std::move(row));
  }
  {
    Fixture fixture(6000);
    SchemaResolver resolver = fixture.spec->WarehouseResolver();
    AggregateView view =
        Unwrap(AggregateView::Create(SummaryDef(), resolver), "create");
    Environment env = fixture.warehouse.Env();
    BenchRow row;
    row.name = "reaggregate_scratch";
    // AggregateView::Initialize evaluates with the default options, which
    // are also the warehouse's.
    row.threads = ThreadPool::ResolveThreads(
        fixture.warehouse.evaluator_options().num_threads);
    row.latency = SummarizeLatencies(MeasureLatenciesUs(5, [&] {
      Check(view.Initialize(env), "init");
      benchmark::DoNotOptimize(view.materialized());
    }));
    row.counters["fact_tuples"] = static_cast<double>(
        fixture.warehouse.FindRelation("FactSales")->size());
    rows.push_back(std::move(row));
  }
  for (size_t batch : {size_t{1}, size_t{10}, size_t{100}}) {
    Fixture fixture(6000);
    Check(fixture.warehouse.AddAggregateView(SummaryDef()), "agg");
    Rng rng(29);
    std::vector<double> latencies;
    auto refresh = [&](bool timed) {
      std::vector<Tuple> victims;
      {
        const Relation* sales = fixture.source.db().FindRelation("Sales");
        auto it = sales->tuples().begin();
        std::advance(it, rng.Below(sales->size() - batch));
        for (size_t i = 0; i < batch; ++i, ++it) {
          victims.push_back(*it);
        }
      }
      UpdateOp del{"Sales", {}, victims};
      CanonicalDelta delta = Unwrap(fixture.source.Apply(del), "apply");
      auto start = std::chrono::steady_clock::now();
      Check(fixture.warehouse.Integrate(delta), "integrate");
      if (timed) {
        latencies.push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count());
      }
      UpdateOp redo{"Sales", victims, {}};
      CanonicalDelta redo_delta = Unwrap(fixture.source.Apply(redo), "redo");
      Check(fixture.warehouse.Integrate(redo_delta), "redo integrate");
    };
    refresh(/*timed=*/false);
    for (int i = 0; i < 8; ++i) {
      refresh(/*timed=*/true);
    }
    BenchRow row;
    row.name = StrCat("delete_heavy/batch=", batch);
    row.threads = ThreadPool::ResolveThreads(
        fixture.warehouse.evaluator_options().num_threads);
    row.latency = SummarizeLatencies(std::move(latencies));
    row.counters["tuples_s"] =
        row.latency.ops_per_sec * static_cast<double>(batch);
    rows.push_back(std::move(row));
  }
  PrintBenchRows(rows);
  WriteBenchJson("aggregates", rows);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dwc

int main(int argc, char** argv) { return dwc::bench::Main(argc, argv); }
