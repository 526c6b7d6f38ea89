// The `query` and `mixed` workloads: translated queries over scaled Figure 1.
//
// `query` runs one closed-loop client and nothing else, so translation and
// evaluation through W⁻¹ have every core to themselves. `mixed` serves the
// same classes to two governed open-loop readers while an open-loop writer
// commits small Sale batches, so commits go copy-on-write under pinned
// readers, the subplan cache loses entries to new versions and the governor
// queues both sides.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "core/query_translation.h"
#include "core/warehouse_spec.h"
#include "exec/thread_pool.h"
#include "maintenance/plan.h"
#include "runtime/governor.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dwc::Tuple;

constexpr int64_t kDim = 1000;
constexpr size_t kFact = 8000;
// Set-ups per run: a few before the load (the last one serves it) and the
// rest spread evenly over the measured interval, run by the first client
// between two of its queries. A set-up takes under 10 ms, and the machine's
// speed can swing by half for seconds at a time: bunched into one stretch,
// the set-ups took that stretch's speed (the median of ten runs read 6.5 ms
// in one set and 9.9 ms in the next), spread out they average over the run
// as the queries do.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsDuring = 20;
// Slice length (see Slice): about 200 queries on `query`, 50 commits on
// `mixed`.
constexpr double kSliceSeconds = 1;
// The full load runs this long before the measurement starts, so that
// copy-on-write commits and cache turnover reach their steady state first.
constexpr double kWarmupSeconds = 2;
// Cached-tuple budget for `mixed`: room for every class's subplans at a few
// versions each, so misses come from commits rather than from the budget.
constexpr size_t kMixedCacheBudget = size_t{1} << 18;
// Open-loop writer rate: well below what a writer at full tilt reaches on
// this data (a few hundred commits per second), so its backlog stays empty.
constexpr double kWriterRate = 50;
constexpr size_t kWriterMaxBatch = 8;
// `mixed` readers send open loop, each this many queries per second on
// average, with every gap drawn uniformly between half and one and a half
// times the mean. Under a closed loop the number of queries landing between
// two commits, and with it the share of answers served from the cache,
// followed the machine's speed; hits (tens of microseconds) and misses
// (milliseconds) lie far apart, so the median jumped between them from run
// to run. At this rate a reader is busy about an eighth of the time (a
// query under this load takes 10-20 ms) and the shortest gap, 50 ms,
// outlasts nearly every query, so queries seldom wait for the one before
// them, even while the machine runs slow.
constexpr double kReaderRate = 10;
// The class mix, in twentieths, indexed by QueryClass: 15% broad, 15%
// point, 60% anti, 10% join. The weights keep both quantiles inside one
// class, away from the gaps between classes where they would jump from run
// to run. On `query` point lookups are fast, broad and anti take about as
// long as each other and joins longest, so the median falls mid-way through
// broad+anti; on `mixed` broad runs a little faster than anti, and the
// median falls a third of the way into anti. On both the 95th percentile
// falls among the joins. Each query draws its class at random rather than
// from a fixed cycle, so the two `mixed` readers cannot fall into step with
// each other.
constexpr uint64_t kClassWeight[kQueryClasses] = {3, 3, 12, 2};

int DrawClass(dwc::Rng* rng) {
  uint64_t slot = rng->Below(20);
  int klass = 0;
  while (slot >= kClassWeight[klass]) {
    slot -= kClassWeight[klass++];
  }
  return klass;
}

struct Served {
  std::shared_ptr<dwc::WarehouseSpec> spec;
  std::unique_ptr<dwc::Source> source;
  std::unique_ptr<dwc::Warehouse> warehouse;
};

// One setup: SpecifyWarehouse + Load (+ the cache budget on `mixed`).
// Returns its wall time in seconds; generating the data is not part of it.
double SetUp(const Figure1& figure, bool mixed, uint64_t request,
             Served* served) {
  served->source = std::make_unique<dwc::Source>(figure.db, "s1");
  int64_t start = NowNs();
  {
    Span setup("setup", request);
    {
      Span span("core.specify");
      served->spec = std::make_shared<dwc::WarehouseSpec>(
          Unwrap(dwc::SpecifyWarehouse(figure.catalog, figure.views),
                 "SpecifyWarehouse"));
    }
    {
      Span span("warehouse.load");
      served->warehouse = std::make_unique<dwc::Warehouse>(
          Unwrap(dwc::Warehouse::Load(served->spec, served->source->db()),
                 "Warehouse::Load"));
    }
    if (mixed) {
      dwc::EvaluatorOptions evaluator;
      evaluator.cache_budget_tuples = kMixedCacheBudget;
      // Serial kernels: with the pool's helpers, two readers and the writer
      // would run up to six threads on four cores, and their latencies
      // would measure the scheduler.
      evaluator.num_threads = 1;
      served->warehouse->SetEvaluatorOptions(evaluator);
    }
  }
  double seconds = static_cast<double>(NowNs() - start) / 1e9;
  if (Tracing()) {
    Span span("maintenance.plan", request);
    Unwrap(dwc::DeriveMaintenancePlan(*served->spec), "DeriveMaintenancePlan");
  }
  return seconds;
}

// The set-ups the first client runs between its queries: the next one is
// due every `every_ns` from `first_ns`, and each goes into a warehouse
// dropped right away.
struct SetupSampler {
  const Figure1* figure;
  bool mixed;
  int64_t first_ns;
  int64_t every_ns;
  std::vector<double> seconds;

  void RunIfDue() {
    int done = static_cast<int>(seconds.size());
    if (done < kSetupsDuring && NowNs() >= first_ns + done * every_ns) {
      Served scratch;
      seconds.push_back(SetUp(*figure, mixed,
                              uint64_t{1} << 48 | (kSetupsBefore + done),
                              &scratch));
    }
  }
};

struct ClientTally {
  std::vector<double> latency_us;  // Untraced queries.
  std::vector<double> class_us[kQueryClasses];
  std::vector<double> traced_us;   // Traced queries (traced run only).
  std::vector<double> late_us;     // Open loop: send time minus due time.
  std::vector<Slice> slices;       // Measured queries, by due time.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// The traced `query` path: AnswerQuery rebuilt from its public parts so each
// part gets a span. Equivalent to AnswerQuery while the subplan cache is off.
bool AnswerRebuilt(const Served& served, const dwc::ExprRef& query) {
  dwc::Result<dwc::ExprRef> translated = [&] {
    Span span("core.translate");
    return dwc::TranslateQuery(query, *served.spec);
  }();
  if (!translated.ok()) {
    return false;
  }
  dwc::SnapshotHandle snapshot = [&] {
    Span span("warehouse.pin");
    return served.warehouse->PinSnapshot();
  }();
  Span span("algebra.eval");
  dwc::Environment env;
  for (const auto& [name, rel] : snapshot.relations()) {
    env.Bind(name, rel.get());
  }
  dwc::Evaluator evaluator(&env, served.warehouse->evaluator_options(),
                           served.spec->interner().get());
  dwc::Result<dwc::Relation> answer = evaluator.Materialize(*translated.value());
  const dwc::EvalStats& stats = evaluator.stats();
  span.Count("probes", static_cast<double>(stats.index_probes));
  span.Count("kernels", static_cast<double>(stats.parallel_kernels));
  span.Count("operators", static_cast<double>(stats.joins + stats.differences));
  span.Count("pushdowns", static_cast<double>(stats.pushdown_joins +
                                              stats.pushdown_differences));
  return answer.ok() && stats.source_reads == 0;
}

// One query, timed from `due_ns`, when the client meant to send it. On
// `mixed` the time includes admission; the answer comes from AnswerQueryAt
// over an explicit pin, which is exactly what AnswerQuery does, so the pin
// can carry its own span.
void AnswerOne(const Served& served, dwc::Governor* governor, int klass,
               int64_t item, uint64_t request, int64_t due_ns, bool traced,
               ClientTally* tally, Slice* slice) {
  TraceGate gate(traced);
  dwc::ExprRef query = MakeQuery(klass, item);
  bool ok = false;
  {
    Span op("query", request);
    op.Count("class", klass);
    if (governor == nullptr) {
      if (traced) {
        ok = AnswerRebuilt(served, query);
      } else {
        dwc::EvalStats stats;
        ok = served.warehouse->AnswerQuery(query, &stats).ok() &&
             stats.source_reads == 0;
      }
    } else {
      dwc::Result<dwc::Governor::Ticket> ticket = [&] {
        Span span("runtime.admit_read");
        return governor->AdmitRead();
      }();
      if (ticket.ok()) {
        dwc::SnapshotHandle snapshot = [&] {
          Span span("warehouse.pin");
          return served.warehouse->PinSnapshot();
        }();
        Span span("warehouse.answer_query");
        dwc::EvalStats stats;
        ok = served.warehouse->AnswerQueryAt(snapshot, query, &stats).ok() &&
             stats.source_reads == 0;
        span.End();
        span.Count("probes", static_cast<double>(stats.index_probes));
        span.Count("kernels", static_cast<double>(stats.parallel_kernels));
        span.Count("cache_hits", static_cast<double>(stats.cache_hits));
        span.Count("cache_misses", static_cast<double>(stats.cache_misses));
        span.Count("cache_evictions",
                   static_cast<double>(stats.cache_evictions));
        // The last reader of a superseded epoch frees its relation copies.
        Span unpin("warehouse.unpin");
        snapshot.Release();
      }
    }
  }
  double us = static_cast<double>(NowNs() - due_ns) / 1e3;
  ++tally->attempted;
  if (!ok) {
    ++tally->failed;
    return;
  }
  if (slice != nullptr) {
    ++slice->completed;
    if (!traced) {
      slice->latency_us.push_back(us);
    }
  }
  if (traced) {
    tally->traced_us.push_back(us);
  } else {
    tally->latency_us.push_back(us);
    tally->class_us[klass].push_back(us);
  }
}

// A run's clock: the load starts at `start_ns`, is measured from
// `measure_ns` and stops at `deadline_ns`; the measured interval is cut into
// `slices` equal slices.
struct Schedule {
  int64_t start_ns;
  int64_t measure_ns;
  int64_t deadline_ns;
  int slices;

  int SliceOf(int64_t ns) const {
    int64_t slice = (ns - measure_ns) * slices / (deadline_ns - measure_ns);
    return static_cast<int>(std::clamp<int64_t>(slice, 0, slices - 1));
  }
};

// One client, sending until the deadline. Closed loop (`rate` == 0): the
// next query goes out when the last one returns. Open loop: queries are due
// `rate` per second on average, whatever happened to the ones before them.
// Queries due before the measured interval are warm-up, counted as
// attempted but not timed; a measured query goes into the slice it was due
// in. A client given `setups` runs them between its queries.
void ClientLoop(const Served& served, const Figure1& figure,
                dwc::Governor* governor, const Options& options, double rate,
                uint64_t seed, uint64_t request_base, const Schedule& schedule,
                SetupSampler* setups, ClientTally* tally) {
  dwc::Rng rng(seed);
  uint64_t request = request_base;
  ClientTally warmup;
  tally->slices.resize(schedule.slices);
  double due = static_cast<double>(schedule.start_ns);
  for (;;) {
    int64_t send = NowNs();
    if (rate > 0) {
      double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
      due += (0.5 + u) / rate * 1e9;
      send = static_cast<int64_t>(due);
    }
    // A reader still busy at the deadline sends nothing more, so one that
    // falls behind its schedule completes fewer queries in the run.
    if (send >= schedule.deadline_ns || NowNs() >= schedule.deadline_ns) {
      break;
    }
    int klass = DrawClass(&rng);
    int64_t item = figure.items[rng.Below(figure.items.size())];
    bool measured = send >= schedule.measure_ns;
    ClientTally* into = measured ? tally : &warmup;
    if (rate > 0) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(send)));
      into->late_us.push_back(static_cast<double>(NowNs() - send) / 1e3);
    }
    AnswerOne(served, governor, klass, item, ++request, send,
              measured && TracedSlice(options.trace, schedule.measure_ns, send),
              into, measured ? &tally->slices[schedule.SliceOf(send)] : nullptr);
    if (setups != nullptr) {
      setups->RunIfDue();
    }
  }
  tally->attempted += warmup.attempted;
  tally->failed += warmup.failed;
}

struct WriterTally {
  std::vector<double> latency_us;  // Untraced commits, from the due time.
  std::vector<double> late_us;     // Send time minus due time.
  std::vector<Slice> slices;       // Measured commits, by due time.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retired_versions_max = 0;
};

// Open loop: commit number k is due at start + k / kWriterRate whatever
// happened to the ones before it. Each commit is a small Sale insert of
// fresh rows or a delete of rows this writer inserted earlier. Commits due
// before the measured interval are warm-up, counted as attempted but not
// timed.
void WriterLoop(Served* served, const Figure1& figure,
                dwc::Governor* governor, const Options& options,
                const Schedule& schedule, WriterTally* tally) {
  const int64_t interval_ns = static_cast<int64_t>(1e9 / kWriterRate);
  const int64_t measure_ns = schedule.measure_ns;
  const dwc::Relation* sale = served->source->db().FindRelation("Sale");
  dwc::Rng rng(options.seed ^ 0x5eed);
  std::deque<Tuple> inserted;
  tally->slices.resize(schedule.slices);
  for (int64_t k = 0;; ++k) {
    int64_t due = schedule.start_ns + k * interval_ns;
    if (due >= schedule.deadline_ns) {
      break;
    }
    size_t batch = 1 + rng.Below(kWriterMaxBatch);
    dwc::UpdateOp op;
    op.relation = "Sale";
    if (inserted.size() >= batch && rng.Chance(0.5)) {
      for (size_t i = 0; i < batch; ++i) {
        op.deletes.push_back(inserted.front());
        inserted.pop_front();
      }
    } else {
      while (op.inserts.size() < batch) {
        Tuple tuple = figure.NewSale(&rng);
        if (!sale->Contains(tuple)) {
          inserted.push_back(tuple);
          op.inserts.push_back(std::move(tuple));
        }
      }
    }
    dwc::CanonicalDelta delta =
        Unwrap(served->source->Apply(op), "Source::Apply");
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    bool measured = due >= measure_ns;
    if (measured) {
      tally->late_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
    }
    bool traced = measured && TracedSlice(options.trace, measure_ns, due);
    TraceGate gate(traced);
    bool ok = false;
    {
      Span refresh("refresh", (uint64_t{3} << 40) + static_cast<uint64_t>(k) +
                                  1);
      dwc::Result<dwc::Governor::Ticket> ticket = [&] {
        Span span("runtime.admit_maint");
        return governor->AdmitMaintenance();
      }();
      if (ticket.ok()) {
        Span span("warehouse.integrate");
        ok = served->warehouse->Integrate(delta).ok();
      }
    }
    double us = static_cast<double>(NowNs() - due) / 1e3;
    ++tally->attempted;
    ok = ok && served->warehouse->last_integrate_stats().source_reads == 0;
    if (!ok) {
      ++tally->failed;
      continue;
    }
    if (measured) {
      Slice& slice = tally->slices[schedule.SliceOf(due)];
      ++slice.completed;
      if (!traced) {
        slice.latency_us.push_back(us);
        tally->latency_us.push_back(us);
      }
    }
    tally->retired_versions_max =
        std::max(tally->retired_versions_max,
                 served->warehouse->epoch_stats().retired_versions);
  }
}

}  // namespace

RunReport RunQuery(const Options& options, bool mixed) {
  RunReport report;
  Figure1 figure(kDim, kFact, options.seed);
  std::vector<double> setup_s;
  Served served;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    served = Served();
    setup_s.push_back(SetUp(figure, mixed, uint64_t{1} << 48 | rep, &served));
  }
  double stored_ratio =
      StoredPerSourceTuple(*served.warehouse, served.source->db());

  dwc::Governor governor;
  const size_t readers = mixed ? 2 : 1;
  std::vector<ClientTally> tallies(readers);
  WriterTally writer;
  Schedule schedule;
  schedule.start_ns = NowNs();
  schedule.measure_ns =
      schedule.start_ns + static_cast<int64_t>(kWarmupSeconds * 1e9);
  schedule.deadline_ns =
      schedule.measure_ns + static_cast<int64_t>(options.seconds * 1e9);
  schedule.slices = std::max(
      1, static_cast<int>(std::lround(options.seconds / kSliceSeconds)));
  const int64_t setup_every =
      (schedule.deadline_ns - schedule.measure_ns) / kSetupsDuring;
  SetupSampler setups{&figure, mixed, schedule.measure_ns + setup_every / 2,
                      setup_every, {}};
  {
    std::vector<std::jthread> threads;
    for (size_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        ClientLoop(served, figure, mixed ? &governor : nullptr, options,
                   mixed ? kReaderRate : 0, options.seed * 7919 + r,
                   (uint64_t{1} + r) << 40, schedule,
                   r == 0 ? &setups : nullptr, &tallies[r]);
      });
    }
    if (mixed) {
      threads.emplace_back([&] {
        WriterLoop(&served, figure, &governor, options, schedule, &writer);
      });
    }
  }
  ClientTally clients;
  clients.slices.resize(schedule.slices);
  for (ClientTally& tally : tallies) {
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&clients.latency_us, tally.latency_us);
    append(&clients.traced_us, tally.traced_us);
    append(&clients.late_us, tally.late_us);
    for (int c = 0; c < kQueryClasses; ++c) {
      append(&clients.class_us[c], tally.class_us[c]);
    }
    for (int s = 0; s < schedule.slices; ++s) {
      Slice& slice = clients.slices[s];
      append(&slice.latency_us, tally.slices[s].latency_us);
      slice.completed += tally.slices[s].completed;
    }
    clients.attempted += tally.attempted;
    clients.failed += tally.failed;
  }
  // The operation behind the op_* figures: the client's query on `query`,
  // the writer's commit on `mixed`, whose readers' median query latency
  // moved by a sixth between two runs of one seed. The rate counts every
  // query and commit completed.
  std::vector<Slice> op_slices = mixed ? writer.slices : clients.slices;
  for (int s = 0; s < schedule.slices; ++s) {
    if (mixed) {
      op_slices[s].completed += clients.slices[s].completed;
    }
    op_slices[s].seconds = options.seconds / schedule.slices;
  }
  std::vector<double> op_us = mixed ? writer.latency_us : clients.latency_us;
  report.attempted = clients.attempted + writer.attempted;
  report.failed = clients.failed + writer.failed;

  // Oracle, after every client has stopped.
  dwc::Source& source = *served.source;
  if (options.plant_wrong_answer) {
    dwc::Rng rng(options.seed);
    source.mutable_db().FindMutableRelation("Sale")->Insert(
        figure.NewSale(&rng));
    source.RefreshDigest();
  }
  report.OracleCheck(source.query_count() == 0,
                     "the workload sent " +
                         std::to_string(source.query_count()) +
                         " queries to the sources");
  dwc::Status consistent = dwc::CheckConsistency(*served.warehouse, source.db());
  report.OracleCheck(consistent.ok(),
                     "CheckConsistency: " + consistent.ToString());
  for (int c = 0; c < kQueryClasses; ++c) {
    std::string why;
    bool same = SameAnswer(*served.warehouse, source,
                           MakeQuery(c, figure.items.front()), &why);
    report.OracleCheck(same, std::string("class ") + QueryClassName(c) +
                                 ": " + why);
  }

  double p50 = Quantile(&clients.latency_us, 0.5);
  double p99 = Quantile(&clients.latency_us, 0.99);
  double per_s =
      static_cast<double>(clients.latency_us.size() + clients.traced_us.size()) /
      options.seconds;
  setup_s.insert(setup_s.end(), setups.seconds.begin(), setups.seconds.end());
  report.Set("setup_s", Quantile(&setup_s, 0.1), "s");
  FastFigures fastest = Fastest(op_slices);
  report.Set("op_p50_us", fastest.p50_us, "us");
  report.Set("op_p95_us", Quantile(&op_us, 0.95), "us");
  report.Set("ops_per_s", fastest.per_s, "1/s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("query_p50_us", p50, "us");
  report.Set("query_p99_us", p99, "us");
  report.Set("queries_per_s", per_s, "1/s");
  report.Set("query_samples", static_cast<double>(clients.latency_us.size()),
             "count");
  for (int c = 0; c < kQueryClasses; ++c) {
    report.Set(std::string("query_p50_us.") + QueryClassName(c),
               Quantile(&clients.class_us[c], 0.5), "us");
  }
  // How late the open-loop generators (writer and readers) sent.
  std::vector<double> late_us = writer.late_us;
  late_us.insert(late_us.end(), clients.late_us.begin(), clients.late_us.end());
  double late_p99 = Quantile(&late_us, 0.99);
  if (mixed) {
    report.Set("refresh_p50_us", Quantile(&writer.latency_us, 0.5), "us");
    report.Set("refresh_p99_us", Quantile(&writer.latency_us, 0.99), "us");
    report.Set("refresh_samples", static_cast<double>(writer.latency_us.size()),
               "count");
    report.Set("loadgen_late_p99_us", late_p99, "us");
    report.Set("writer_interval_us", 1e6 / kWriterRate, "us");
  }

  if (Tracer* tracer = Tracer::Active()) {
    dwc::EpochStats epochs = served.warehouse->epoch_stats();
    dwc::GovernorStats governed = governor.stats();
    tracer->Counter("exec.workers", static_cast<double>(
                                        dwc::ThreadPool::Shared()
                                            .worker_count()));
    tracer->Counter("core.stored_per_source_tuple", stored_ratio);
    tracer->Counter("warehouse.cow_commits",
                    static_cast<double>(epochs.cow_commits));
    tracer->Counter("warehouse.inplace_commits",
                    static_cast<double>(epochs.inplace_commits));
    tracer->Counter("warehouse.retired_versions_max",
                    static_cast<double>(writer.retired_versions_max));
    tracer->Counter("runtime.refused",
                    static_cast<double>(governed.rejected_reads +
                                        governed.rejected_maintenance +
                                        governed.shed_reads +
                                        governed.timed_out_reads +
                                        governed.timed_out_maintenance));
    tracer->Counter("loadgen.late_p99_us", late_p99);
    tracer->Counter("untraced_op_p50_us", p50);
    tracer->Counter("traced_op_p50_us", Quantile(&clients.traced_us, 0.5));
  }
  return report;
}

}  // namespace perfbench
