// B9: refresh throughput under channel faults. Each iteration pushes one
// Sale insert batch through a DeltaChannel + DeltaIngestor pair and drains
// to full reconciliation, at fault rates {0, 1%, 5%, 20%} applied uniformly
// to drop / duplicate / reorder / corrupt. BM_DirectRefresh is the
// channel-free reference point.
//
// Expected shape: the faultless channel costs a checksum and some
// bookkeeping over direct integration; low fault rates add occasional
// outbox retransmissions (still zero source queries when nothing is truly
// lost); at 20% the recovery ladder's counted resyncs dominate — graceful
// degradation, visible in the src_queries / resync counters.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_common.h"
#include "exec/thread_pool.h"
#include "util/string_util.h"
#include "warehouse/channel.h"
#include "warehouse/ingest.h"

namespace dwc {
namespace bench {
namespace {

void BM_DirectRefresh(benchmark::State& state) {
  ScaledFigure1 scenario(1000, 8000, /*referential=*/false, 7);
  ComplementOptions options;
  options.use_constraints = false;
  auto spec = std::make_shared<WarehouseSpec>(Unwrap(
      SpecifyWarehouse(scenario.catalog, scenario.views, options), "spec"));
  Source source(scenario.db);
  Warehouse warehouse = Unwrap(Warehouse::Load(spec, source.db()), "load");
  Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    UpdateOp op = scenario.MakeInsertBatch(8, &rng);
    CanonicalDelta delta = Unwrap(source.Apply(op), "apply");
    state.ResumeTiming();
    Check(warehouse.Integrate(delta), "integrate");
    state.PauseTiming();
    CanonicalDelta undo =
        Unwrap(source.Apply(UpdateOp{op.relation, {}, op.inserts}), "undo");
    Check(warehouse.Integrate(undo), "undo integrate");
    state.ResumeTiming();
  }
  state.counters["src_queries"] = static_cast<double>(source.query_count());
}

void BM_FaultyRefresh(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  ScaledFigure1 scenario(1000, 8000, /*referential=*/false, 7);
  ComplementOptions options;
  options.use_constraints = false;
  auto spec = std::make_shared<WarehouseSpec>(Unwrap(
      SpecifyWarehouse(scenario.catalog, scenario.views, options), "spec"));
  Source source(scenario.db);
  Warehouse warehouse = Unwrap(Warehouse::Load(spec, source.db()), "load");
  FaultProfile profile;
  profile.drop_rate = rate;
  profile.duplicate_rate = rate;
  profile.reorder_rate = rate;
  profile.corrupt_rate = rate;
  profile.seed = 17;
  DeltaChannel channel(profile);
  DeltaIngestor ingestor(&warehouse, &source, &channel);
  auto pump = [&channel, &ingestor] {
    for (std::optional<CanonicalDelta> got = channel.Poll(); got;
         got = channel.Poll()) {
      Check(ingestor.Receive(*got), "receive");
    }
  };
  Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    UpdateOp op = scenario.MakeInsertBatch(8, &rng);
    CanonicalDelta delta = Unwrap(source.Apply(op), "apply");
    state.ResumeTiming();
    channel.Send(delta);
    pump();
    Check(ingestor.Drain(), "drain");
    state.PauseTiming();
    // Untimed rollback, also through the channel so the ingestor's
    // sequence/digest tracking stays live across iterations.
    CanonicalDelta undo =
        Unwrap(source.Apply(UpdateOp{op.relation, {}, op.inserts}), "undo");
    channel.Send(undo);
    pump();
    Check(ingestor.Drain(), "undo drain");
    state.ResumeTiming();
  }
  const IntegrationStats& stats = ingestor.stats();
  state.counters["src_queries"] = static_cast<double>(source.query_count());
  state.counters["gaps"] = static_cast<double>(stats.gaps_detected);
  state.counters["retransmits"] = static_cast<double>(stats.retransmits);
  state.counters["base_resyncs"] = static_cast<double>(stats.base_resyncs);
  state.counters["full_resyncs"] = static_cast<double>(stats.full_resyncs);
  state.counters["backoff_ticks"] = static_cast<double>(stats.backoff_ticks);
}

BENCHMARK(BM_DirectRefresh)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FaultyRefresh)
    ->Arg(0)
    ->Arg(1)
    ->Arg(5)
    ->Arg(20)
    ->Unit(benchmark::kMicrosecond);

// --json: fixed-iteration sweep over the fault-rate grid (plus the
// channel-free direct path at rate < 0), written to
// BENCH_fault_tolerance.json.
void JsonRow(int rate_pct, size_t iterations, std::vector<BenchRow>* rows) {
  ScaledFigure1 scenario(1000, 8000, /*referential=*/false, 7);
  ComplementOptions options;
  options.use_constraints = false;
  auto spec = std::make_shared<WarehouseSpec>(Unwrap(
      SpecifyWarehouse(scenario.catalog, scenario.views, options), "spec"));
  Source source(scenario.db);
  Warehouse warehouse = Unwrap(Warehouse::Load(spec, source.db()), "load");

  const bool direct = rate_pct < 0;
  FaultProfile profile;
  if (!direct) {
    const double rate = static_cast<double>(rate_pct) / 100.0;
    profile.drop_rate = rate;
    profile.duplicate_rate = rate;
    profile.reorder_rate = rate;
    profile.corrupt_rate = rate;
    profile.seed = 17;
  }
  DeltaChannel channel(profile);
  DeltaIngestor ingestor(&warehouse, &source, &channel);
  auto pump = [&channel, &ingestor] {
    for (std::optional<CanonicalDelta> got = channel.Poll(); got;
         got = channel.Poll()) {
      Check(ingestor.Receive(*got), "receive");
    }
  };
  Rng rng(11);
  auto refresh = [&](bool timed, std::vector<double>* latencies) {
    UpdateOp op = scenario.MakeInsertBatch(8, &rng);
    CanonicalDelta delta = Unwrap(source.Apply(op), "apply");
    auto start = std::chrono::steady_clock::now();
    if (direct) {
      Check(warehouse.Integrate(delta), "integrate");
    } else {
      channel.Send(delta);
      pump();
      Check(ingestor.Drain(), "drain");
    }
    if (timed) {
      latencies->push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    }
    CanonicalDelta undo =
        Unwrap(source.Apply(UpdateOp{op.relation, {}, op.inserts}), "undo");
    if (direct) {
      Check(warehouse.Integrate(undo), "undo integrate");
    } else {
      channel.Send(undo);
      pump();
      Check(ingestor.Drain(), "undo drain");
    }
  };
  refresh(/*timed=*/false, nullptr);  // Warmup.
  std::vector<double> latencies;
  for (size_t i = 0; i < iterations; ++i) {
    refresh(/*timed=*/true, &latencies);
  }
  BenchRow row;
  row.name = direct ? "direct_refresh"
                    : StrCat("faulty_refresh/rate_pct=", rate_pct);
  row.threads =
      ThreadPool::ResolveThreads(warehouse.evaluator_options().num_threads);
  row.latency = SummarizeLatencies(std::move(latencies));
  row.counters["src_queries"] = static_cast<double>(source.query_count());
  if (!direct) {
    const IntegrationStats& stats = ingestor.stats();
    row.counters["gaps"] = static_cast<double>(stats.gaps_detected);
    row.counters["retransmits"] = static_cast<double>(stats.retransmits);
    row.counters["base_resyncs"] = static_cast<double>(stats.base_resyncs);
    row.counters["full_resyncs"] = static_cast<double>(stats.full_resyncs);
    row.counters["backoff_ticks"] =
        static_cast<double>(stats.backoff_ticks);
  }
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
  for (int rate_pct : {-1, 0, 1, 5, 20}) {
    JsonRow(rate_pct, /*iterations=*/15, &rows);
  }
  PrintBenchRows(rows);
  WriteBenchJson("fault_tolerance", rows);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dwc

int main(int argc, char** argv) { return dwc::bench::Main(argc, argv); }
