// B13 (see EXPERIMENTS.md): snapshot-isolated serving latency while the
// warehouse integrates at full tilt. Reader threads run analytical queries
// through AnswerQuery (pin epoch, evaluate lock-free, release) while one
// writer thread pushes insert/undo refresh pairs through Integrate with no
// think time. Each configuration reports the readers' query p50/p99 and
// ops/sec, plus the writer's refresh rate and the epoch machinery's
// commit-path and reclamation counters.
//
// Expected shape: serving latency under integration stays within a small
// factor of idle latency — readers never block on the writer, they only
// pay cache-effect interference and the occasional COW epoch's allocation
// traffic. shed_snapshots stays 0 because AnswerQuery pins for one query
// at a time and can never lag the bounded epoch window.
//
// With --json, writes BENCH_concurrent_serving.json; CI's perf-smoke job
// gates the p99 of these rows (lower is better) at 25%.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "warehouse/epoch.h"

namespace dwc {
namespace bench {
namespace {

constexpr size_t kDim = 1000;
constexpr size_t kFact = 8000;
constexpr size_t kWriterBatch = 16;
// Enough queries that each row's p99 has at least ten samples beyond it.
constexpr size_t kQueriesPerReader = 1000;

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct ConfigResult {
  LatencyStats latency;       // Reader-side query latency, all threads merged.
  double refreshes_s = 0;     // Writer refreshes per second (0 when idle).
  EpochStats epochs;          // Final epoch-machinery counters.
  size_t shed_queries = 0;    // Queries aborted by the shed policy.
};

// One serving configuration: `readers` closed-loop query threads, with or
// without a concurrent full-tilt writer.
ConfigResult RunConfig(size_t readers, bool with_writer) {
  ScaledFigure1 scenario(kDim, kFact, /*referential=*/false, /*seed=*/7);
  ComplementOptions options;
  options.use_constraints = false;
  auto spec = std::make_shared<WarehouseSpec>(Unwrap(
      SpecifyWarehouse(scenario.catalog, scenario.views, options), "spec"));
  Source source(scenario.db);
  Warehouse warehouse = Unwrap(Warehouse::Load(spec, source.db()), "load");

  // The serving query: a probe-heavy join over the reconstructed base
  // state, translated against the warehouse's stored views.
  ExprRef query = Expr::Join(Expr::Base("Sale"), Expr::Base("Emp"));
  (void)Unwrap(warehouse.AnswerQuery(query), "warmup");

  std::atomic<bool> stop{false};
  std::atomic<size_t> refreshes{0};
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      Rng rng(11);
      while (!stop.load(std::memory_order_acquire)) {
        UpdateOp op = scenario.MakeInsertBatch(kWriterBatch, &rng);
        CanonicalDelta delta = Unwrap(source.Apply(op), "apply");
        Check(warehouse.Integrate(delta), "integrate");
        // Undo so the state size (and thus query cost) stays fixed.
        CanonicalDelta undo = Unwrap(
            source.Apply(UpdateOp{op.relation, {}, op.inserts}), "undo");
        Check(warehouse.Integrate(undo), "undo integrate");
        refreshes.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::vector<double>> per_thread(readers);
  std::vector<size_t> shed(readers, 0);
  auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(readers);
  for (size_t r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      per_thread[r].reserve(kQueriesPerReader);
      for (size_t i = 0; i < kQueriesPerReader; ++i) {
        auto start = std::chrono::steady_clock::now();
        Result<Relation> answer = warehouse.AnswerQuery(query);
        if (!answer.ok()) {
          // The only tolerated failure is the shed policy cutting loose a
          // lagging snapshot; anything else is a bug.
          Check(answer.status().code() == StatusCode::kAborted
                    ? Status::Ok()
                    : answer.status(),
                "query");
          ++shed[r];
          continue;
        }
        per_thread[r].push_back(ElapsedUs(start));
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  double wall_s = ElapsedUs(wall_start) / 1e6;
  stop.store(true, std::memory_order_release);
  if (writer.joinable()) {
    writer.join();
  }

  ConfigResult result;
  std::vector<double> merged;
  for (std::vector<double>& v : per_thread) {
    merged.insert(merged.end(), v.begin(), v.end());
    v.clear();
  }
  for (size_t s : shed) {
    result.shed_queries += s;
  }
  result.latency = SummarizeLatencies(std::move(merged));
  // SummarizeLatencies derives ops/sec from the per-op latency sum; with
  // concurrent readers the wall-clock aggregate is the honest number.
  if (wall_s > 0) {
    result.latency.ops_per_sec =
        static_cast<double>(readers * kQueriesPerReader -
                            result.shed_queries) /
        wall_s;
    result.refreshes_s =
        with_writer ? static_cast<double>(refreshes.load()) / wall_s : 0.0;
  }
  result.epochs = warehouse.epoch_stats();
  return result;
}

int Main(int argc, char** argv) {
  const bool json = JsonRequested(argc, argv);
  std::vector<BenchRow> rows;
  std::printf("%-36s %8s %12s %12s %12s %12s\n", "configuration", "readers",
              "query/s", "p50 us", "p99 us", "refresh/s");
  for (bool with_writer : {false, true}) {
    for (size_t readers : {size_t{1}, size_t{4}}) {
      ConfigResult result = RunConfig(readers, with_writer);
      BenchRow row;
      row.name = StrCat(with_writer ? "serve_under_integration" : "serve_idle",
                        "/readers=", readers);
      row.threads = readers;
      row.latency = result.latency;
      row.counters["refreshes_s"] = result.refreshes_s;
      row.counters["epochs_published"] =
          static_cast<double>(result.epochs.published);
      row.counters["inplace_commits"] =
          static_cast<double>(result.epochs.inplace_commits);
      row.counters["cow_commits"] =
          static_cast<double>(result.epochs.cow_commits);
      row.counters["reclaimed_epochs"] =
          static_cast<double>(result.epochs.reclaimed_epochs);
      row.counters["shed_queries"] =
          static_cast<double>(result.shed_queries);
      std::printf("%-36s %8zu %12.1f %12.1f %12.1f %12.1f\n",
                  row.name.c_str(), readers, row.latency.ops_per_sec,
                  row.latency.p50_us, row.latency.p99_us,
                  result.refreshes_s);
      rows.push_back(std::move(row));
    }
  }
  if (json) {
    WriteBenchJson("concurrent_serving", rows);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dwc

int main(int argc, char** argv) { return dwc::bench::Main(argc, argv); }
