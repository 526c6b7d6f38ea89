// B14 (see EXPERIMENTS.md): overload-graceful serving through the runtime
// governor. The same reader storm runs three ways against a warehouse that
// a writer keeps integrating at full tilt:
//
//   serve_idle          capacity-matched readers, no writer, no governor —
//                       the baseline the SLO multiple is measured against.
//   governed_storm      4x more readers than slots, every read admitted
//                       through a Governor with a per-query deadline token.
//                       Excess demand queues briefly, then times out or is
//                       shed; the reads that ARE served keep a p99 within a
//                       small multiple of idle because at most
//                       max_concurrent_reads of them ever run at once.
//   ungoverned_storm    the same storm with no admission control and no
//                       deadlines: every reader piles straight onto the
//                       warehouse and the tail inflates with the overload.
//
// Each row reports the *served* queries' p50/p99 and shed-adjusted ops/sec,
// plus counters: served, shed (ladder + queue-full), timed_out (queue-time
// deadline), cancelled (mid-query deadline), and for the governed storm the
// maximum deadline overrun — how far past its deadline a cancelled query
// ran before the evaluator's next check point caught it. Cancellation is
// cooperative, so the overrun should stay within one morsel/operator of the
// deadline, not one query.
//
// With --json, writes BENCH_overload.json. CI's perf-smoke job gates the
// idle and governed rows on ops_per_sec AND p99_us against the committed
// baseline; the ungoverned row is deliberately absent from the baseline
// (fresh-only rows never gate) because its tail is exactly the
// runner-noise-amplifying number the gate must not depend on.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "runtime/cancel.h"
#include "runtime/governor.h"
#include "util/string_util.h"
#include "warehouse/epoch.h"

namespace dwc {
namespace bench {
namespace {

constexpr size_t kDim = 1000;
constexpr size_t kFact = 8000;
constexpr size_t kWriterBatch = 16;
// Enough queries that the idle row's p99 has ten samples beyond it.
constexpr size_t kQueriesPerReader = 500;
constexpr size_t kGovernedSlots = 2;
constexpr size_t kStormReaders = 8;

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

enum class Mode { kIdle, kGoverned, kUngoverned };

struct ConfigResult {
  LatencyStats latency;     // Served (successful) queries only.
  size_t served = 0;
  size_t shed = 0;          // Ladder/queue-full refusals (ResourceExhausted).
  size_t timed_out = 0;     // Queue-time deadline expiries.
  size_t cancelled = 0;     // Mid-query deadline cancellations.
  double max_overrun_us = 0;  // Worst (completion - deadline) on cancel.
  double refreshes_s = 0;
  GovernorStats governor;
};

ConfigResult RunConfig(Mode mode, double deadline_us) {
  const size_t readers = mode == Mode::kIdle ? kGovernedSlots : kStormReaders;
  ScaledFigure1 scenario(kDim, kFact, /*referential=*/false, /*seed=*/7);
  ComplementOptions options;
  options.use_constraints = false;
  auto spec = std::make_shared<WarehouseSpec>(Unwrap(
      SpecifyWarehouse(scenario.catalog, scenario.views, options), "spec"));
  Source source(scenario.db);
  Warehouse warehouse = Unwrap(Warehouse::Load(spec, source.db()), "load");

  ExprRef query = Expr::Join(Expr::Base("Sale"), Expr::Base("Emp"));
  (void)Unwrap(warehouse.AnswerQuery(query), "warmup");

  GovernorOptions gov;
  gov.max_concurrent_reads = kGovernedSlots;
  gov.max_concurrent_maintenance = 1;
  gov.max_read_queue = 4;
  // Queue depth drives the ladder; epoch lag stays out of this bench.
  gov.stale_only_queue_depth = 3;
  gov.maintenance_only_queue_depth = 4;
  Governor governor(gov);

  std::atomic<bool> stop{false};
  std::atomic<size_t> refreshes{0};
  std::thread writer;
  if (mode != Mode::kIdle) {
    writer = std::thread([&] {
      Rng rng(11);
      while (!stop.load(std::memory_order_acquire)) {
        UpdateOp op = scenario.MakeInsertBatch(kWriterBatch, &rng);
        CanonicalDelta delta = Unwrap(source.Apply(op), "apply");
        Check(warehouse.Integrate(delta), "integrate");
        CanonicalDelta undo = Unwrap(
            source.Apply(UpdateOp{op.relation, {}, op.inserts}), "undo");
        Check(warehouse.Integrate(undo), "undo integrate");
        refreshes.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::vector<double>> per_thread(readers);
  struct ReaderCounts {
    size_t shed = 0;
    size_t timed_out = 0;
    size_t cancelled = 0;
    double max_overrun_us = 0;
  };
  std::vector<ReaderCounts> counts(readers);
  auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(readers);
  for (size_t r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      per_thread[r].reserve(kQueriesPerReader);
      // The stale fallback the ladder's kStaleOnly rung serves from.
      SnapshotHandle stale = warehouse.PinSnapshot();
      for (size_t i = 0; i < kQueriesPerReader; ++i) {
        std::shared_ptr<CancelToken> token;
        Governor::Ticket ticket;
        if (mode == Mode::kGoverned) {
          token = CancelToken::WithDeadline(
              std::chrono::microseconds(static_cast<int64_t>(deadline_us)));
          Result<Governor::Ticket> admitted =
              governor.AdmitRead(token.get(), /*allow_stale=*/true);
          if (!admitted.ok()) {
            if (admitted.status().code() == StatusCode::kDeadlineExceeded) {
              ++counts[r].timed_out;
            } else {
              Check(admitted.status().code() ==
                            StatusCode::kResourceExhausted
                        ? Status::Ok()
                        : admitted.status(),
                    "admit");
              ++counts[r].shed;
            }
            continue;
          }
          ticket = std::move(admitted).value();
        }
        auto start = std::chrono::steady_clock::now();
        Result<Relation> answer =
            mode == Mode::kGoverned && ticket.stale_only()
                ? warehouse.AnswerQueryAt(stale, query, nullptr, token.get())
                : warehouse.AnswerQuery(query, nullptr, token.get());
        if (!answer.ok()) {
          StatusCode code = answer.status().code();
          if (code == StatusCode::kDeadlineExceeded && token != nullptr) {
            ++counts[r].cancelled;
            double overrun_us =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - token->deadline())
                    .count();
            counts[r].max_overrun_us =
                std::max(counts[r].max_overrun_us, overrun_us);
          } else if (code == StatusCode::kAborted) {
            // The epoch window shed the stale fallback; re-pin and go on.
            ++counts[r].shed;
            stale = warehouse.PinSnapshot();
          } else {
            Check(answer.status(), "query");
          }
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
  for (const ReaderCounts& c : counts) {
    result.shed += c.shed;
    result.timed_out += c.timed_out;
    result.cancelled += c.cancelled;
    result.max_overrun_us = std::max(result.max_overrun_us, c.max_overrun_us);
  }
  result.served = merged.size();
  result.latency = SummarizeLatencies(std::move(merged));
  if (wall_s > 0) {
    result.latency.ops_per_sec = static_cast<double>(result.served) / wall_s;
    result.refreshes_s =
        mode != Mode::kIdle ? static_cast<double>(refreshes.load()) / wall_s
                            : 0.0;
  }
  result.governor = governor.stats();
  return result;
}

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kIdle:
      return "serve_idle";
    case Mode::kGoverned:
      return "governed_storm";
    case Mode::kUngoverned:
      return "ungoverned_storm";
  }
  return "unknown";
}

int Main(int argc, char** argv) {
  const bool json = JsonRequested(argc, argv);
  std::vector<BenchRow> rows;
  std::printf("%-28s %8s %10s %10s %10s %8s %8s %8s %12s\n", "configuration",
              "readers", "served/s", "p50 us", "p99 us", "served", "shed",
              "cancel", "overrun us");
  // The governed deadline is an SLO derived from idle capacity: generous
  // against p99 (a well-behaved query always fits), tight against a storm
  // (queue waits burn it fast).
  ConfigResult idle = RunConfig(Mode::kIdle, 0);
  double deadline_us = std::max(2000.0, idle.latency.p99_us * 8);
  for (Mode mode : {Mode::kIdle, Mode::kGoverned, Mode::kUngoverned}) {
    ConfigResult result =
        mode == Mode::kIdle ? idle : RunConfig(mode, deadline_us);
    const size_t readers =
        mode == Mode::kIdle ? kGovernedSlots : kStormReaders;
    BenchRow row;
    row.name = StrCat(ModeName(mode), "/readers=", readers);
    row.threads = readers;
    row.latency = result.latency;
    row.counters["served"] = static_cast<double>(result.served);
    row.counters["shed"] = static_cast<double>(result.shed);
    row.counters["timed_out"] = static_cast<double>(result.timed_out);
    row.counters["cancelled"] = static_cast<double>(result.cancelled);
    row.counters["max_overrun_us"] = result.max_overrun_us;
    row.counters["refreshes_s"] = result.refreshes_s;
    if (mode == Mode::kGoverned) {
      row.counters["deadline_us"] = deadline_us;
      row.counters["stale_reads"] =
          static_cast<double>(result.governor.stale_reads);
    }
    std::printf("%-28s %8zu %10.1f %10.1f %10.1f %8zu %8zu %8zu %12.1f\n",
                row.name.c_str(), readers, row.latency.ops_per_sec,
                row.latency.p50_us, row.latency.p99_us, result.served,
                result.shed + result.timed_out, result.cancelled,
                result.max_overrun_us);
    rows.push_back(std::move(row));
  }
  if (json) {
    WriteBenchJson("overload", rows);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dwc

int main(int argc, char** argv) { return dwc::bench::Main(argc, argv); }
