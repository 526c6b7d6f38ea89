// The `refresh` workload: the whole write path on the Section 5 star schema.
//
// One closed-loop writer applies source updates and commits each reported
// delta durably: Integrate (or IntegrateTransaction) followed by
// DurableWarehouse::Append, which fsyncs the WAL and takes a checkpoint
// whenever the default JournalPolicy says so. After the stream the final
// directory is recovered several times. Translation, copy-on-write commits,
// the subplan cache and the governor are not on this path.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/warehouse_spec.h"
#include "exec/thread_pool.h"
#include "maintenance/plan.h"
#include "probe_vfs.h"
#include "storage/durable.h"
#include "storage/recovery.h"
#include "trace.h"
#include "workload/star_schema.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dwc::Tuple;
using dwc::UpdateOp;
using dwc::Value;

// B5's largest load.
constexpr size_t kSales = 32000;
// Set-ups per run: a few before the stream (the last one serves it) and one
// after every kSetupEverySlices-th slice of the stream, so that their lower
// quartile does not hang on how fast the machine ran in one stretch of
// seconds.
constexpr int kSetupsBefore = 3;
constexpr int kSetupEverySlices = 2;
// Slice length (see Slice): about 600 refreshes.
constexpr double kSliceSeconds = 1;
constexpr int kRecoverRepetitions = 3;
constexpr char kAggregate[] = "UnitsByRegion";

dwc::StarSchemaConfig Config(uint64_t seed) {
  dwc::StarSchemaConfig config;
  config.customers = 200;
  config.suppliers = 50;
  config.parts = 400;
  config.locations = 25;
  config.orders = kSales / 4 + 16;
  config.sales = kSales;
  config.seed = seed;
  return config;
}

dwc::AggregateViewDef SummaryDef() {
  dwc::AggregateViewDef def;
  def.name = kAggregate;
  def.source = dwc::Expr::Base("FactSales");
  def.group_by = {"supp_region"};
  def.aggregates = {{dwc::AggFunc::kCount, "", "n_sales"},
                    {dwc::AggFunc::kSum, "quantity", "units"},
                    {dwc::AggFunc::kMax, "quantity", "biggest"}};
  return def;
}

// The seeded update stream. Inserts and deletes alternate: an insert books a
// fresh batch of sales, a delete removes the oldest batch still booked, so
// about kOpenBatches batches stay booked and the database keeps its size.
// One refresh in ten is instead an Orders+Sales transaction that opens an
// order and books 1–4 sales on it (a batch like any other). Batch sizes are
// skewed: nine inserts in ten hold 1–16 rows, the tenth 17–256. The sizes
// are stratified (a golden-ratio sequence from a seeded start), so every
// seed sees the same size mix and run-to-run spread comes from the system,
// not from how many large batches a seed happened to draw.
class UpdateStream {
 public:
  UpdateStream(const dwc::StarSchemaConfig& config, uint64_t seed)
      : config_(config),
        rng_(seed),
        next_sale_key_(static_cast<int64_t>(config.sales)),
        next_order_key_(static_cast<int64_t>(config.orders)),
        small_phase_(Unit()),
        large_phase_(Unit()) {}

  // One refresh: a single op, or two (Orders then Sales) for a transaction.
  std::vector<UpdateOp> Next() {
    if (++refreshes_ % 10 == 0) {
      int64_t order = next_order_key_++;
      UpdateOp orders{"Orders", {}, {}};
      orders.inserts.push_back(Tuple(
          {Value::Int(order), Value::Int(Pick(config_.customers)),
           Value::Int(Pick(config_.locations)), Value::Int(rng_.Range(1, 12))}));
      return {std::move(orders),
              Book(static_cast<size_t>(rng_.Range(1, 4)), order)};
    }
    if (booked_.size() > kOpenBatches) {
      UpdateOp sales{"Sales", {}, std::move(booked_.front())};
      booked_.pop_front();
      return {std::move(sales)};
    }
    ++inserts_;
    size_t batch = inserts_ % 10 == 0 ? 17 + Stratified(&large_phase_, 240)
                                      : 1 + Stratified(&small_phase_, 16);
    return {Book(batch, -1)};
  }

 private:
  static constexpr size_t kOpenBatches = 16;

  double Unit() { return static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53; }

  // The next value in [0, range) of a golden-ratio sequence.
  static size_t Stratified(double* phase, size_t range) {
    *phase += 0.6180339887498949;
    *phase -= static_cast<double>(static_cast<int64_t>(*phase));
    return static_cast<size_t>(*phase * static_cast<double>(range));
  }

  int64_t Pick(int64_t bound) {
    return static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(bound)));
  }
  int64_t Pick(size_t bound) { return Pick(static_cast<int64_t>(bound)); }

  // Books `count` fresh sales on `order`, or on random existing orders when
  // `order` is negative.
  UpdateOp Book(size_t count, int64_t order) {
    UpdateOp sales{"Sales", {}, {}};
    for (size_t i = 0; i < count; ++i) {
      sales.inserts.push_back(Tuple(
          {Value::Int(next_sale_key_++),
           Value::Int(order >= 0 ? order : Pick(next_order_key_)),
           Value::Int(Pick(config_.parts)), Value::Int(Pick(config_.suppliers)),
           Value::Int(rng_.Range(1, 50))}));
    }
    booked_.push_back(sales.inserts);
    return sales;
  }

  dwc::StarSchemaConfig config_;
  dwc::Rng rng_;
  int64_t next_sale_key_;
  int64_t next_order_key_;
  double small_phase_;
  double large_phase_;
  uint64_t refreshes_ = 0;
  uint64_t inserts_ = 0;
  std::deque<std::vector<Tuple>> booked_;
};

struct Durable {
  std::shared_ptr<dwc::WarehouseSpec> spec;
  std::unique_ptr<dwc::Source> source;
  std::unique_ptr<dwc::Warehouse> warehouse;
  std::unique_ptr<dwc::DurableWarehouse> durable;
};

// One setup: SpecifyWarehouse + Load + AddAggregateView + Bootstrap into a
// fresh directory. Returns its wall time in seconds; generating the star
// schema is not part of it.
double SetUp(const dwc::StarSchema& star, ProbeVfs* vfs,
             const std::string& dir, uint64_t request, Durable* out) {
  out->source = std::make_unique<dwc::Source>(star.db, "s1");
  int64_t start = NowNs();
  {
    Span setup("setup", request);
    {
      Span span("core.specify");
      out->spec = std::make_shared<dwc::WarehouseSpec>(Unwrap(
          dwc::SpecifyWarehouse(star.catalog, star.views), "SpecifyWarehouse"));
    }
    {
      Span span("warehouse.load");
      out->warehouse = std::make_unique<dwc::Warehouse>(Unwrap(
          dwc::Warehouse::Load(out->spec, out->source->db()), "Load"));
    }
    {
      Span span("aggregate.add_view");
      Check(out->warehouse->AddAggregateView(SummaryDef()), "AddAggregateView");
    }
    {
      Span span("storage.bootstrap");
      out->durable = Unwrap(
          dwc::DurableWarehouse::Bootstrap(
              vfs, dir, out->warehouse.get(),
              dwc::JournalStamp{out->source->epoch(),
                                out->source->last_sequence()}),
          "Bootstrap");
    }
  }
  double seconds = static_cast<double>(NowNs() - start) / 1e9;
  if (Tracing()) {
    Span span("maintenance.plan", request);
    Unwrap(dwc::DeriveMaintenancePlan(*out->spec), "DeriveMaintenancePlan");
  }
  return seconds;
}

struct StreamTally {
  std::vector<double> latency_us;  // Untraced refreshes.
  std::vector<double> traced_us;   // Traced refreshes (traced run only).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t tuples = 0;
  // Delta payload at 8 bytes per attribute value.
  uint64_t payload_bytes = 0;
};

// Runs the refresh stream for `seconds` as one slice, adding every refresh
// to `tally`. Each refresh is timed from the first Integrate call to the
// return of the last Append, so the delta is durable when the clock stops;
// generating and applying the update at the source is outside the timer.
Slice RunStream(Durable* d, UpdateStream* stream, ProbeVfs* vfs, bool trace,
                double seconds, StreamTally* tally_out) {
  StreamTally& tally = *tally_out;
  Slice slice;
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  uint64_t request = (uint64_t{1} << 40) + tally.attempted;
  for (int64_t now = start; now < deadline; now = NowNs()) {
    bool traced = TracedSlice(trace, start, now);
    TraceGate gate(traced);
    std::vector<UpdateOp> ops = stream->Next();
    std::vector<dwc::CanonicalDelta> deltas;
    if (ops.size() == 1) {
      deltas.push_back(Unwrap(d->source->Apply(ops[0]), "Source::Apply"));
    } else {
      deltas = Unwrap(d->source->ApplyTransaction(ops),
                      "Source::ApplyTransaction");
    }
    uint64_t tuples = 0;
    for (const dwc::CanonicalDelta& delta : deltas) {
      uint64_t rows = delta.inserts.size() + delta.deletes.size();
      tuples += rows;
      tally.payload_bytes += rows * 8 * delta.inserts.schema().size();
    }

    int64_t op_start = NowNs();
    Span op("refresh", ++request);
    Span integrate("warehouse.integrate");
    dwc::Status status = ops.size() == 1
                             ? d->warehouse->Integrate(deltas[0])
                             : d->warehouse->IntegrateTransaction(deltas);
    integrate.End();
    for (size_t i = 0; status.ok() && i < deltas.size(); ++i) {
      Span append("storage.append");
      if (!traced) {
        status = d->durable->Append(deltas[i]);
        continue;
      }
      VfsCounts before = vfs->counts();
      uint64_t checkpoints = d->durable->stats().checkpoints;
      status = d->durable->Append(deltas[i]);
      append.End();
      VfsCounts after = vfs->counts();
      append.Count("wal_bytes", static_cast<double>(after.wal_append_bytes -
                                                     before.wal_append_bytes));
      append.Count("checkpoint_bytes",
                   static_cast<double>(after.checkpoint_append_bytes -
                                       before.checkpoint_append_bytes));
      append.Count("checkpoint",
                   d->durable->stats().checkpoints > checkpoints ? 1 : 0);
    }
    op.End();
    double us = static_cast<double>(NowNs() - op_start) / 1e3;

    dwc::EvalStats stats = d->warehouse->last_integrate_stats();
    integrate.Count("probes", static_cast<double>(stats.index_probes));
    integrate.Count("kernels", static_cast<double>(stats.parallel_kernels));
    integrate.Count("delta_tuples", static_cast<double>(tuples));
    ++tally.attempted;
    if (!status.ok() || stats.source_reads != 0) {
      ++tally.failed;
      continue;
    }
    (traced ? tally.traced_us : tally.latency_us).push_back(us);
    if (!traced) {
      slice.latency_us.push_back(us);
    }
    ++slice.completed;
    tally.tuples += tuples;
  }
  slice.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return slice;
}

}  // namespace

RunReport RunRefresh(const Options& options) {
  RunReport report;
  Tracer* tracer = Tracer::Active();
  std::filesystem::create_directories(options.work_dir);
  auto dir_for = [&](int rep) {
    return options.work_dir + "/refresh-" + std::to_string(getpid()) + "-" +
           std::to_string(rep);
  };

  dwc::StarSchemaConfig config = Config(options.seed);
  dwc::StarSchema star = Unwrap(dwc::BuildStarSchema(config), "star schema");
  ProbeVfs vfs;
  std::vector<double> setup_s;
  Durable d;
  std::string dir;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    d = Durable();
    std::filesystem::remove_all(dir);
    dir = dir_for(rep);
    std::filesystem::remove_all(dir);
    setup_s.push_back(SetUp(star, &vfs, dir, uint64_t{1} << 48 | rep, &d));
  }
  double stored_ratio = StoredPerSourceTuple(*d.warehouse, d.source->db());

  UpdateStream stream(config, options.seed ^ 0x5eed);
  // Warm-up, outside every measurement.
  StreamTally warmup;
  RunStream(&d, &stream, &vfs, /*trace=*/false, 0.25, &warmup);
  VfsCounts stream_start = vfs.counts();
  uint64_t checkpoints_start = d.durable->stats().checkpoints;
  // The measured stream, in slices. Between every kSetupEverySlices-th
  // slice and the next, with the stream's clock stopped, one more set-up
  // goes into a fresh directory dropped right away, so that set-ups are
  // sampled across the run as the refreshes are.
  // They bootstrap through their own probe Vfs, so the stream's byte counts
  // hold the stream's writes alone.
  const int slice_count = std::max(
      1, static_cast<int>(std::lround(options.seconds / kSliceSeconds)));
  ProbeVfs scratch_vfs;
  StreamTally tally;
  std::vector<Slice> slices;
  for (int s = 0; s < slice_count; ++s) {
    slices.push_back(RunStream(&d, &stream, &vfs, options.trace,
                               options.seconds / slice_count, &tally));
    if (s % kSetupEverySlices == 0 && s + 1 < slice_count) {
      int rep = static_cast<int>(setup_s.size());
      std::string scratch_dir = dir_for(rep);
      std::filesystem::remove_all(scratch_dir);
      {
        Durable scratch;
        setup_s.push_back(SetUp(star, &scratch_vfs, scratch_dir,
                                uint64_t{1} << 48 | rep, &scratch));
      }
      std::filesystem::remove_all(scratch_dir);
    }
  }
  VfsCounts stream_end = vfs.counts();
  uint64_t checkpoints = d.durable->stats().checkpoints - checkpoints_start;
  report.attempted = warmup.attempted + tally.attempted;
  report.failed = warmup.failed + tally.failed;

  // Oracle on the live warehouse (Theorems 4.1 and 3.1), untimed.
  dwc::Source& source = *d.source;
  if (options.plant_wrong_answer) {
    source.mutable_db().FindMutableRelation("Sales")->Insert(
        Tuple({Value::Int(-1), Value::Int(0), Value::Int(0), Value::Int(0),
               Value::Int(1)}));
    source.RefreshDigest();
  }
  report.OracleCheck(source.query_count() == 0,
                     "the workload sent " +
                         std::to_string(source.query_count()) +
                         " queries to the sources");
  dwc::Status consistent = dwc::CheckConsistency(*d.warehouse, source.db());
  report.OracleCheck(consistent.ok(),
                     "CheckConsistency: " + consistent.ToString());
  for (const char* base : {"Sales", "Orders"}) {
    std::string why;
    bool same = SameAnswer(*d.warehouse, source, dwc::Expr::Base(base), &why);
    report.OracleCheck(same, std::string("query ") + base + ": " + why);
  }

  // Restart: recover the final directory read-only, several times. Each
  // recovered warehouse must carry the pre-restart digest. A restart is a
  // new process, so the serving warehouse is gone before recovery starts and
  // the serving peak RSS is read here.
  uint64_t digest = WarehouseDigest(*d.warehouse, {kAggregate});
  double serving_rss_mb = PeakRssMb();
  dwc::EpochStats epochs = d.warehouse->epoch_stats();
  d = Durable();
  std::vector<double> recover_ms;
  std::vector<double> replayed;
  for (int rep = 0; rep < kRecoverRepetitions; ++rep) {
    int64_t start = NowNs();
    Span span("recover", (uint64_t{3} << 40) + rep + 1);
    dwc::Result<dwc::RecoveredStorage> recovered =
        dwc::RecoveryManager(&vfs, dir).Recover(/*repair=*/false);
    span.End();
    double ms = static_cast<double>(NowNs() - start) / 1e6;
    ++report.attempted;
    if (!recovered.ok()) {
      ++report.failed;
      report.oracle_failures.push_back("Recover: " +
                                       recovered.status().ToString());
      continue;
    }
    recover_ms.push_back(ms);
    replayed.push_back(
        static_cast<double>(recovered.value().report.records_replayed));
    report.OracleCheck(
        WarehouseDigest(*recovered.value().restored.warehouse, {kAggregate}) ==
            digest,
        "the recovered warehouse's digest differs from the pre-restart one");
  }
  std::filesystem::remove_all(dir);
  double recover_rss_mb = PeakRssMb();

  uint64_t disk_bytes =
      (stream_end.wal_append_bytes - stream_start.wal_append_bytes) +
      (stream_end.checkpoint_append_bytes -
       stream_start.checkpoint_append_bytes);
  uint64_t payload = tally.payload_bytes;
  double p50 = Quantile(&tally.latency_us, 0.5);
  double p95 = Quantile(&tally.latency_us, 0.95);
  double p99 = Quantile(&tally.latency_us, 0.99);
  report.Set("setup_s", Quantile(&setup_s, 0.1), "s");
  FastFigures fastest = Fastest(slices);
  report.Set("op_p50_us", fastest.p50_us, "us");
  report.Set("op_p95_us", p95, "us");
  report.Set("ops_per_s", fastest.per_s, "1/s");
  report.Set("peak_rss_mb", serving_rss_mb, "MB");
  report.Set("recover_peak_rss_mb", recover_rss_mb, "MB");
  report.Set("refresh_p50_us", p50, "us");
  report.Set("refresh_p99_us", p99, "us");
  report.Set("refresh_samples", static_cast<double>(tally.latency_us.size()),
             "count");
  report.Set("refresh_tuples_per_s",
             static_cast<double>(tally.tuples) / options.seconds, "tuples/s");
  report.Set("recover_p50_ms", Median(recover_ms), "ms");
  report.Set("disk_bytes_per_delta_byte",
             payload > 0 ? static_cast<double>(disk_bytes) /
                               static_cast<double>(payload)
                         : 0,
             "ratio");
  report.Set("checkpoints", static_cast<double>(checkpoints), "count");

  if (tracer != nullptr) {
    tracer->Counter("exec.workers", static_cast<double>(
                                        dwc::ThreadPool::Shared()
                                            .worker_count()));
    tracer->Counter("core.stored_per_source_tuple", stored_ratio);
    tracer->Counter("warehouse.cow_commits",
                    static_cast<double>(epochs.cow_commits));
    tracer->Counter("warehouse.inplace_commits",
                    static_cast<double>(epochs.inplace_commits));
    tracer->Counter("storage.records_replayed", Median(replayed));
    tracer->Counter("untraced_op_p50_us", p50);
    tracer->Counter("traced_op_p50_us", Quantile(&tally.traced_us, 0.5));
  }
  return report;
}

}  // namespace perfbench
