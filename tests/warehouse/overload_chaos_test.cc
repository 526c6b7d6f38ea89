// Overload chaos suite for the runtime governor (labeled dwc_tsan: its
// claims are race claims, so CI runs it under ThreadSanitizer).
//
// Reader threads storm the warehouse through a Governor with adversarial
// CancelTokens — already-expired deadlines, one-tuple budgets, pre-fired
// cancel flags — while one writer drives fault-injected integrations
// through DeltaIngestor and flaps the source behind the per-source circuit
// breaker (an injected outage plus a delta that never reaches the channel's
// outbox, so recovery must go to the source and fail). The invariants:
//
//   - every integration that commits matches the digest oracle recorded at
//     publication, no matter how many reads were cancelled around it;
//   - cancelled / timed-out / budget-killed reads never publish anything
//     and never corrupt the subplan cache (successful re-reads of the same
//     queries keep verifying against the oracle);
//   - the breaker trips open on the flapping source, integration of healthy
//     traffic continues while repairs are deferred, and the half-open probe
//     after the outage heals replays the backlog to a final state that is
//     digest-identical with the source;
//   - when the storm ends: no snapshot pins, no retired epochs, breaker
//     closed, warehouse exactly consistent.

#include <gtest/gtest.h>


#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/warehouse_spec.h"
#include "parser/parser.h"
#include "runtime/breaker.h"
#include "runtime/cancel.h"
#include "runtime/governor.h"
#include "testing/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "warehouse/channel.h"
#include "warehouse/ingest.h"
#include "warehouse/warehouse.h"
#include "workload/star_schema.h"
#include "workload/update_stream.h"

namespace dwc {
namespace {

constexpr int kReaderThreads = 4;
constexpr int kWriterSteps = 36;
// The flap window: the source goes dark at kOutageStart (and the update
// generated that step never reaches the channel, forcing a source-backed
// repair), service returns at kOutageEnd.
constexpr int kOutageStart = 12;
constexpr int kOutageEnd = 18;

struct EpochOracle {
  std::map<std::string, uint64_t> relation_digests;
  std::vector<uint64_t> query_digests;
};

class OverloadChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void BuildHarness() {
    StarSchemaConfig config;
    config.customers = 10;
    config.suppliers = 5;
    config.parts = 12;
    config.locations = 3;
    config.orders = 30;
    config.sales = 60;
    config.seed = GetParam();
    Result<StarSchema> star = BuildStarSchema(config);
    DWC_ASSERT_OK(star);
    spec_ = std::make_shared<WarehouseSpec>(
        *SpecifyWarehouse(star->catalog, star->views));
    source_ = std::make_unique<Source>(star->db, "star");
    Result<Warehouse> warehouse = Warehouse::Load(spec_, source_->db());
    DWC_ASSERT_OK(warehouse);
    warehouse_ = std::make_unique<Warehouse>(std::move(warehouse).value());
    EvaluatorOptions options;
    options.cache_budget_tuples = 1 << 16;
    warehouse_->SetEvaluatorOptions(options);
    // Transport faults on top of the deterministic outage: the recovery
    // ladder keeps running (and keeps being deferred) under the readers.
    FaultProfile profile;
    profile.drop_rate = 0.08;
    profile.duplicate_rate = 0.08;
    profile.reorder_rate = 0.1;
    profile.seed = GetParam();
    channel_ = std::make_unique<DeltaChannel>(profile);
    // A small breaker so the storm traverses closed → open → (possibly
    // re-tripped) half-open → closed within one run.
    RetryPolicy policy;
    policy.breaker.failure_threshold = 2;
    policy.breaker.open_ticks = 4;
    policy.breaker.max_open_ticks = 16;
    policy.breaker.jitter_seed = GetParam() * 0x9E3779B97F4A7C15ULL + 1;
    ingestor_ = std::make_unique<DeltaIngestor>(warehouse_.get(),
                                                source_.get(), channel_.get(),
                                                policy);
    ingestor_->set_commit_hook([this](const CommitEvent& event) {
      (void)event;
      RecordOracle();
      return Status::Ok();
    });
    // Tight limits so the ladder actually engages under four readers.
    GovernorOptions gov;
    gov.max_concurrent_reads = 2;
    gov.max_concurrent_maintenance = 1;
    gov.max_read_queue = 4;
    gov.stale_only_queue_depth = 2;
    gov.maintenance_only_queue_depth = 4;
    governor_ = std::make_unique<Governor>(gov);
    for (const char* text :
         {"FactSales", "select[quantity >= 3](FactSales)",
          "project[supp_region, quantity](FactSales)"}) {
      Result<ExprRef> query = ParseExpr(text);
      DWC_ASSERT_OK(query);
      queries_.push_back(std::move(query).value());
    }
    RecordOracle();
  }

  void RecordOracle() {
    SnapshotHandle snapshot = warehouse_->PinSnapshot();
    ASSERT_TRUE(snapshot.valid());
    EpochOracle oracle;
    for (const auto& [name, rel] : snapshot.relations()) {
      oracle.relation_digests[name] = RelationDigest(*rel);
    }
    for (const ExprRef& query : queries_) {
      Result<Relation> answer = warehouse_->AnswerQueryAt(snapshot, query);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      oracle.query_digests.push_back(RelationDigest(*answer));
    }
    std::lock_guard<std::mutex> lock(oracle_mu_);
    oracle_[snapshot.epoch()] = std::move(oracle);
    oracle_cv_.notify_all();
  }

  bool WaitForOracle(uint64_t epoch, EpochOracle* out) {
    std::unique_lock<std::mutex> lock(oracle_mu_);
    bool ok = oracle_cv_.wait_for(lock, std::chrono::seconds(60), [&] {
      return oracle_.count(epoch) > 0;
    });
    if (ok) {
      *out = oracle_[epoch];
    }
    return ok;
  }

  // An adversarial token: some dimension is drawn hostile often enough
  // that every storm sees real DeadlineExceeded / ResourceExhausted /
  // Aborted traffic, while enough tokens stay benign that the oracle gets
  // verified too.
  std::shared_ptr<CancelToken> MakeToken(Rng* rng) {
    auto token = std::make_shared<CancelToken>();
    switch (rng->Below(5)) {
      case 0:  // Already expired: fails at the very first check point.
        token->set_deadline(CancelToken::Clock::now());
        break;
      case 1:  // Tight but real deadline; may or may not make it.
        token->set_deadline(CancelToken::Clock::now() +
                            std::chrono::microseconds(rng->Below(200)));
        break;
      case 2:  // Budget far below the fact table's size.
        token->set_budget_tuples(1 + rng->Below(4));
        break;
      case 3:  // Pre-fired external cancel (a client that already hung up).
        token->Cancel();
        break;
      default:  // Benign: generous in every dimension.
        token->set_deadline(CancelToken::Clock::now() +
                            std::chrono::seconds(30));
        break;
    }
    return token;
  }

  // One reader: it arrives at the start barrier and waits there for the
  // writer, so every lap it counts begins after the writer has started.
  void ReaderLoop(uint64_t reader_seed, std::atomic<uint64_t>* verified,
                  std::atomic<uint64_t>* governed_failures) {
    Rng rng(reader_seed);
    {
      std::unique_lock<std::mutex> lock(start_mu_);
      ++readers_ready_;
      start_cv_.notify_all();
      start_cv_.wait(lock, [this] { return writer_started_; });
    }
    // The reader's stale fallback: a snapshot pinned on an earlier lap,
    // served when the ladder only admits stale reads.
    SnapshotHandle stale;
    while (!done_.load(std::memory_order_acquire)) {
      std::shared_ptr<CancelToken> token = MakeToken(&rng);
      bool allow_stale = stale.valid() && rng.Below(2) == 0;
      Result<Governor::Ticket> ticket =
          governor_->AdmitRead(token.get(), allow_stale);
      if (!ticket.ok()) {
        // Shed, queue-full, or queue-time deadline — never anything else.
        ASSERT_TRUE(ticket.status().code() == StatusCode::kResourceExhausted ||
                    ticket.status().code() == StatusCode::kDeadlineExceeded)
            << ticket.status().ToString();
        governed_failures->fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      SnapshotHandle fresh;
      if (!ticket->stale_only()) {
        fresh = warehouse_->PinSnapshot();
        ASSERT_TRUE(fresh.valid());
      }
      const SnapshotHandle& snapshot = ticket->stale_only() ? stale : fresh;
      size_t q = rng.Below(queries_.size());
      Result<Relation> answer =
          warehouse_->AnswerQueryAt(snapshot, queries_[q], nullptr,
                                    token.get());
      if (!answer.ok()) {
        // A governed failure: the token fired (DeadlineExceeded /
        // ResourceExhausted / Aborted-by-cancel) or the epoch-lag policy
        // shed the stale snapshot (Aborted). Partial work is discarded;
        // nothing publishes; the next lap re-verifies the oracle.
        StatusCode code = answer.status().code();
        ASSERT_TRUE(code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kAborted)
            << answer.status().ToString();
        governed_failures->fetch_add(1, std::memory_order_relaxed);
      } else {
        EpochOracle oracle;
        ASSERT_TRUE(WaitForOracle(snapshot.epoch(), &oracle))
            << "oracle for epoch " << snapshot.epoch() << " never recorded";
        ASSERT_EQ(RelationDigest(*answer), oracle.query_digests[q])
            << "query " << q << " at epoch " << snapshot.epoch();
        verified->fetch_add(1, std::memory_order_relaxed);
      }
      if (!ticket->stale_only()) {
        // Keep the newest pin around as the next stale fallback.
        stale = std::move(fresh);
      }
    }
  }

  // One writer step's ingest work, admitted as maintenance.
  void PumpChannel() {
    Result<Governor::Ticket> ticket = governor_->AdmitMaintenance();
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    for (std::optional<CanonicalDelta> got = channel_->Poll(); got;
         got = channel_->Poll()) {
      Status received = ingestor_->Receive(*got);
      ASSERT_TRUE(received.ok()) << received.ToString();
    }
  }

  void DrainOnce() {
    Result<Governor::Ticket> ticket = governor_->AdmitMaintenance();
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    Status drained = ingestor_->Drain();
    ASSERT_TRUE(drained.ok()) << drained.ToString();
  }

  void WriterLoop() {
    Rng rng(GetParam() * 131 + 9);
    std::vector<std::string> updatable = {"Sales", "Orders", "Customer",
                                          "Supplier", "Part", "Location"};
    UpdateStreamOptions options;
    options.max_inserts = 3;
    options.max_deletes = 2;
    options.db_options.int_domain = 100000;
    for (int step = 0; step < kWriterSteps; ++step) {
      if (step == kOutageStart) {
        source_->set_outage_hook(
            [] { return Status::Internal("injected source outage"); });
      }
      if (step == kOutageEnd) {
        source_->set_outage_hook({});
      }
      Result<UpdateOp> op = GenerateRandomUpdate(
          source_->db(), updatable[rng.Below(updatable.size())], &rng,
          options);
      ASSERT_TRUE(op.ok()) << op.status().ToString();
      Result<CanonicalDelta> delta = source_->Apply(*op);
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      if (step != kOutageStart) {
        channel_->Send(*delta);
      }
      // The kOutageStart delta is applied and sequenced at the source but
      // never transmitted: it is not in the outbox, so retransmit (rung 1)
      // can never recover it and only a source-backed resync can — which
      // the outage hook fails until step kOutageEnd. That forces the
      // breaker to trip regardless of the fault seed.
      PumpChannel();
      if (step >= kOutageStart || step % 3 == 2) {
        // Drain every step from the outage on: each call ticks the
        // breaker's logical clock through open → half-open.
        DrainOnce();
      }
    }
    // The storm is over; the source is healthy. Keep draining until the
    // half-open probe fires, the resync replays the deferred backlog, and
    // the watermark catches up. Bounded: a stuck breaker is a failure.
    for (int i = 0; i < 300; ++i) {
      if (ingestor_->next_expected() > source_->last_sequence() &&
          ingestor_->breaker().state() == CircuitBreaker::State::kClosed) {
        break;
      }
      DrainOnce();
    }
  }

  void RunStorm() {
    std::atomic<uint64_t> verified{0};
    std::atomic<uint64_t> governed_failures{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaderThreads);
    for (int r = 0; r < kReaderThreads; ++r) {
      readers.emplace_back([this, r, &verified, &governed_failures] {
        ReaderLoop(GetParam() * 977 + static_cast<uint64_t>(r), &verified,
                   &governed_failures);
      });
    }
    // The start barrier: the writer starts once every reader is waiting
    // for it, and releases them as it starts.
    {
      std::unique_lock<std::mutex> lock(start_mu_);
      start_cv_.wait(lock, [this] { return readers_ready_ == kReaderThreads; });
      writer_started_ = true;
    }
    start_cv_.notify_all();
    WriterLoop();
    // A writer that finished before any reader got a lap in would leave
    // the counters at 0: the storm stays open (for at most a minute, so a
    // broken reader fails the assertions below instead of hanging) until
    // the readers have had both a verified read and a governed failure.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while ((verified.load() == 0 || governed_failures.load() == 0) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done_.store(true, std::memory_order_release);
    for (std::thread& reader : readers) {
      reader.join();
    }

    // The storm exercised both sides of the governor: verified answers and
    // governed refusals (the pre-expired / pre-cancelled tokens guarantee
    // the latter on every seed). Every read the counters and the governor
    // saw began after the writer started.
    EXPECT_GT(verified.load(), 0u);
    EXPECT_GT(governed_failures.load(), 0u);

    // Breaker lifecycle: the flap tripped it, integration survived it, and
    // the recovery replayed the backlog to a digest-identical state.
    const IntegrationStats& stats = ingestor_->stats();
    EXPECT_GE(ingestor_->breaker().trips(), 1u) << stats.ToString();
    EXPECT_GT(stats.resync_failures, 0u);
    EXPECT_GT(stats.breaker_deferred, 0u);
    EXPECT_EQ(ingestor_->breaker().state(), CircuitBreaker::State::kClosed);
    EXPECT_EQ(ingestor_->next_expected(), source_->last_sequence() + 1);
    EXPECT_EQ(ingestor_->buffered(), 0u);
    DWC_ASSERT_OK(CheckConsistency(*warehouse_, source_->db()));

    // Cancelled work never pinned anything durably and never published.
    EpochStats epochs = warehouse_->epoch_stats();
    EXPECT_EQ(epochs.live_snapshots, 0u);
    EXPECT_EQ(epochs.retired_epochs, 0u);
    EXPECT_EQ(epochs.current_epoch, warehouse_->current_epoch());

    GovernorStats gov = governor_->stats();
    EXPECT_GT(gov.admitted_reads, 0u);
    EXPECT_GT(gov.admitted_maintenance, 0u);
  }

  std::shared_ptr<WarehouseSpec> spec_;
  std::unique_ptr<Source> source_;
  std::unique_ptr<Warehouse> warehouse_;
  std::unique_ptr<DeltaChannel> channel_;
  std::unique_ptr<DeltaIngestor> ingestor_;
  std::unique_ptr<Governor> governor_;
  std::vector<ExprRef> queries_;

  std::mutex oracle_mu_;
  std::condition_variable oracle_cv_;
  std::map<uint64_t, EpochOracle> oracle_;
  std::atomic<bool> done_{false};

  // The start barrier: readers waiting for the writer, and whether it has
  // started.
  std::mutex start_mu_;
  std::condition_variable start_cv_;
  int readers_ready_ = 0;
  bool writer_started_ = false;
};

TEST_P(OverloadChaosTest, AdversarialStormWithFlappingSource) {
  BuildHarness();
  RunStorm();
  // Every ladder source query is visible to the source (failed RPCs count
  // as traffic too).
  EXPECT_EQ(source_->query_count(), ingestor_->stats().source_queries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace dwc
