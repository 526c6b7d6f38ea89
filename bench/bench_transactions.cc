// B8 (extension): atomic multi-relation transactions vs integrating the
// same deltas one relation at a time. The transaction path evaluates one
// simultaneous-update plan; the sequential path evaluates one plan per
// relation against intermediate states. Both are correct; the question is
// the overhead of the (cached) multi-base plan machinery.
//
// Expected shape: near-parity for small deltas (plan caching amortizes the
// derivation), with the transaction path saving one round of per-relation
// bookkeeping as the number of touched relations grows.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_common.h"
#include "exec/thread_pool.h"
#include "util/string_util.h"

namespace dwc {
namespace bench {
namespace {

// A (Sale-insert, Emp-insert) pair touching both relations.
std::vector<UpdateOp> MakeOps(const ScaledFigure1& scenario, size_t batch,
                              Rng* rng) {
  UpdateOp sale = scenario.MakeInsertBatch(batch, rng);
  UpdateOp emp;
  emp.relation = "Emp";
  size_t dim = scenario.db.FindRelation("Emp")->size();
  for (size_t i = 0; i < batch; ++i) {
    emp.inserts.push_back(
        Tuple({Value::Int(static_cast<int64_t>(dim) + rng->Range(0, 1 << 28)),
               Value::Int(rng->Range(18, 65))}));
  }
  return {std::move(sale), std::move(emp)};
}

void RunTransactions(benchmark::State& state, bool atomic) {
  const size_t batch = static_cast<size_t>(state.range(0));
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
    std::vector<UpdateOp> ops = MakeOps(scenario, batch, &rng);
    std::vector<CanonicalDelta> deltas =
        Unwrap(source.ApplyTransaction(ops), "apply");
    state.ResumeTiming();

    if (atomic) {
      Check(warehouse.IntegrateTransaction(deltas), "txn");
    } else {
      for (const CanonicalDelta& delta : deltas) {
        Check(warehouse.Integrate(delta), "seq");
      }
    }

    state.PauseTiming();
    // Roll back (untimed) to keep the state size stable.
    std::vector<UpdateOp> undo;
    for (const UpdateOp& op : ops) {
      undo.push_back(UpdateOp{op.relation, {}, op.inserts});
    }
    std::vector<CanonicalDelta> undo_deltas =
        Unwrap(source.ApplyTransaction(undo), "undo");
    Check(warehouse.IntegrateTransaction(undo_deltas), "undo txn");
    state.ResumeTiming();
  }
  state.counters["src_queries"] = static_cast<double>(source.query_count());
}

void BM_AtomicTransaction(benchmark::State& state) {
  RunTransactions(state, /*atomic=*/true);
}
void BM_SequentialIntegration(benchmark::State& state) {
  RunTransactions(state, /*atomic=*/false);
}

BENCHMARK(BM_AtomicTransaction)
    ->Arg(1)
    ->Arg(16)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SequentialIntegration)
    ->Arg(1)
    ->Arg(16)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

// --json: fixed-iteration sweep over the same (mode, batch) grid, written
// to BENCH_transactions.json for CI's perf-smoke gate.
void JsonRow(bool atomic, size_t batch, size_t iterations,
             std::vector<BenchRow>* rows) {
  ScaledFigure1 scenario(1000, 8000, /*referential=*/false, 7);
  ComplementOptions options;
  options.use_constraints = false;
  auto spec = std::make_shared<WarehouseSpec>(Unwrap(
      SpecifyWarehouse(scenario.catalog, scenario.views, options), "spec"));
  Source source(scenario.db);
  Warehouse warehouse = Unwrap(Warehouse::Load(spec, source.db()), "load");

  Rng rng(11);
  auto round = [&](bool timed, std::vector<double>* latencies) {
    std::vector<UpdateOp> ops = MakeOps(scenario, batch, &rng);
    std::vector<CanonicalDelta> deltas =
        Unwrap(source.ApplyTransaction(ops), "apply");
    auto start = std::chrono::steady_clock::now();
    if (atomic) {
      Check(warehouse.IntegrateTransaction(deltas), "txn");
    } else {
      for (const CanonicalDelta& delta : deltas) {
        Check(warehouse.Integrate(delta), "seq");
      }
    }
    if (timed) {
      latencies->push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    }
    std::vector<UpdateOp> undo;
    for (const UpdateOp& op : ops) {
      undo.push_back(UpdateOp{op.relation, {}, op.inserts});
    }
    std::vector<CanonicalDelta> undo_deltas =
        Unwrap(source.ApplyTransaction(undo), "undo");
    Check(warehouse.IntegrateTransaction(undo_deltas), "undo txn");
  };
  round(/*timed=*/false, nullptr);  // Warmup.
  std::vector<double> latencies;
  for (size_t i = 0; i < iterations; ++i) {
    round(/*timed=*/true, &latencies);
  }
  BenchRow row;
  row.name = StrCat(atomic ? "atomic" : "sequential", "/batch=", batch);
  row.threads =
      ThreadPool::ResolveThreads(warehouse.evaluator_options().num_threads);
  row.latency = SummarizeLatencies(std::move(latencies));
  row.counters["src_queries"] = static_cast<double>(source.query_count());
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
  for (bool atomic : {true, false}) {
    for (size_t batch : {size_t{1}, size_t{16}, size_t{128}}) {
      JsonRow(atomic, batch, /*iterations=*/10, &rows);
    }
  }
  PrintBenchRows(rows);
  WriteBenchJson("transactions", rows);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dwc

int main(int argc, char** argv) { return dwc::bench::Main(argc, argv); }
