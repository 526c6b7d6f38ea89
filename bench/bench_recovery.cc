// B10: recovery time vs WAL length, and how the checkpoint policy bounds
// it. BM_RecoveryReplay recovers a directory whose WAL holds N deltas
// beyond the checkpoint — recovery time is expected to grow linearly with
// N (checkpoint load + N interpreter replays, each digest-verified).
// BM_PolicyBoundedRecovery ingests a 512+(M-1)-delta stream under
// JournalPolicy max_records = M: the policy folds the log into a fresh
// checkpoint every M records, so recovery replays at most M-1 records
// regardless of history length — the knob that turns unbounded replay
// into a constant. The history is sized to leave exactly that worst-case
// residue in the WAL.
//
// Recovery runs with repair=false (read-only), so every iteration sees the
// identical directory.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "bench/bench_common.h"
#include "storage/durable.h"
#include "storage/fault_vfs.h"
#include "storage/recovery.h"
#include "util/string_util.h"
#include "warehouse/source.h"

namespace dwc {
namespace bench {
namespace {

// A directory with one checkpoint and `deltas` WAL records, plus the live
// warehouse context needed to keep everything alive.
struct PreparedDirectory {
  std::unique_ptr<ScaledFigure1> scenario;
  std::shared_ptr<WarehouseSpec> spec;
  std::unique_ptr<Source> source;
  std::unique_ptr<Warehouse> warehouse;
  std::unique_ptr<DurableWarehouse> durable;
  FaultVfs vfs;

  PreparedDirectory(size_t deltas, size_t policy_max_records) {
    scenario = std::make_unique<ScaledFigure1>(200, 1000,
                                               /*referential=*/false, 7);
    ComplementOptions options;
    options.use_constraints = false;
    spec = std::make_shared<WarehouseSpec>(Unwrap(
        SpecifyWarehouse(scenario->catalog, scenario->views, options),
        "spec"));
    source = std::make_unique<Source>(scenario->db, "s1");
    warehouse = std::make_unique<Warehouse>(
        Unwrap(Warehouse::Load(spec, source->db()), "load"));
    StorageOptions storage;
    if (policy_max_records > 0) {
      storage.policy.max_records = policy_max_records;
    } else {
      // "Unbounded": defeat the default policy so the WAL keeps all N
      // records and replay cost is measured against the full log.
      storage.policy.max_records = static_cast<size_t>(-1);
      storage.policy.max_bytes = static_cast<size_t>(-1);
    }
    durable = Unwrap(
        DurableWarehouse::Bootstrap(
            &vfs, "wh", warehouse.get(),
            JournalStamp{source->epoch(), source->last_sequence()}, storage),
        "bootstrap");
    Rng rng(11);
    for (size_t i = 0; i < deltas; ++i) {
      CanonicalDelta delta = Unwrap(
          source->Apply(scenario->MakeInsertBatch(1, &rng)), "apply");
      Check(durable->Integrate(delta, source.get()), "integrate");
    }
  }
};

void BM_RecoveryReplay(benchmark::State& state) {
  // No policy: the WAL keeps all N deltas past the bootstrap checkpoint.
  PreparedDirectory prepared(static_cast<size_t>(state.range(0)),
                             /*policy_max_records=*/0);
  uint64_t replayed = 0;
  for (auto _ : state) {
    RecoveryManager manager(&prepared.vfs, "wh");
    RecoveredStorage recovered =
        Unwrap(manager.Recover(/*repair=*/false), "recover");
    replayed = recovered.report.records_replayed;
    benchmark::DoNotOptimize(recovered.restored.warehouse);
  }
  state.counters["wal_records"] = static_cast<double>(replayed);
}

void BM_PolicyBoundedRecovery(benchmark::State& state) {
  // Varying checkpoint cadence M, history sized to leave the worst-case
  // residue (M - 1 records past the last policy checkpoint): replay work
  // is capped by the policy, not by history length.
  const size_t cadence = static_cast<size_t>(state.range(0));
  PreparedDirectory prepared(/*deltas=*/512 + cadence - 1, cadence);
  uint64_t replayed = 0;
  for (auto _ : state) {
    RecoveryManager manager(&prepared.vfs, "wh");
    RecoveredStorage recovered =
        Unwrap(manager.Recover(/*repair=*/false), "recover");
    replayed = recovered.report.records_replayed;
    benchmark::DoNotOptimize(recovered.restored.warehouse);
  }
  state.counters["wal_records"] = static_cast<double>(replayed);
  state.counters["checkpoints"] =
      static_cast<double>(prepared.durable->stats().checkpoints);
}

BENCHMARK(BM_RecoveryReplay)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PolicyBoundedRecovery)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

// --json: fixed-iteration recovery timings over the same grids, written to
// BENCH_recovery.json. The 1024-record replay point is dropped from the
// sweep to keep the perf-smoke job fast; the trend is visible from the
// remaining points.
void JsonRow(const char* label, size_t arg, size_t deltas,
             size_t policy_max_records, size_t iterations,
             std::vector<BenchRow>* rows) {
  PreparedDirectory prepared(deltas, policy_max_records);
  uint64_t replayed = 0;
  std::vector<double> latencies;
  for (size_t i = 0; i < iterations; ++i) {
    RecoveryManager manager(&prepared.vfs, "wh");
    auto start = std::chrono::steady_clock::now();
    RecoveredStorage recovered =
        Unwrap(manager.Recover(/*repair=*/false), "recover");
    latencies.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    replayed = recovered.report.records_replayed;
    benchmark::DoNotOptimize(recovered.restored.warehouse);
  }
  BenchRow row;
  row.name = StrCat(label, "=", arg);
  row.threads = 1;
  row.latency = SummarizeLatencies(std::move(latencies));
  row.counters["wal_records"] = static_cast<double>(replayed);
  if (policy_max_records > 0) {
    row.counters["checkpoints"] =
        static_cast<double>(prepared.durable->stats().checkpoints);
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
  for (size_t deltas : {size_t{16}, size_t{64}, size_t{256}}) {
    JsonRow("replay/wal", deltas, deltas, /*policy_max_records=*/0,
            /*iterations=*/5, &rows);
  }
  for (size_t cadence : {size_t{32}, size_t{128}, size_t{512}}) {
    JsonRow("policy_bounded/cadence", cadence, 512 + cadence - 1, cadence,
            /*iterations=*/5, &rows);
  }
  PrintBenchRows(rows);
  WriteBenchJson("recovery", rows);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dwc

int main(int argc, char** argv) { return dwc::bench::Main(argc, argv); }
