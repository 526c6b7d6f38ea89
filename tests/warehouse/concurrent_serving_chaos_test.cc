// Chaos suite for snapshot-isolated concurrent serving (labeled dwc_tsan:
// its claims are race claims, so CI runs it under ThreadSanitizer).
//
// One writer thread drives a star-schema source through a seeded
// fault-injected DeltaChannel (drops, duplicates, bounded reordering,
// corruption) into DeltaIngestor → Warehouse, with deliberate rolled-back
// integration attempts mixed in. Meanwhile reader threads storm
// PinSnapshot/AnswerQueryAt. The invariant under test: every reader
// observes exactly one committed epoch's state — the per-relation digests
// of its pinned snapshot, and every query answer evaluated through it,
// equal what the writer recorded at the moment that epoch was published.
// No torn states, no half-applied integrations, no crashes, no races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/warehouse_spec.h"
#include "parser/parser.h"
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

using ::dwc::testing::I;
using ::dwc::testing::S;
using ::dwc::testing::T;

constexpr int kReaderThreads = 4;
constexpr int kWriterSteps = 30;

// What the writer publishes per epoch: digests of every relation version in
// the epoch plus the digest of each oracle query's answer at that epoch.
struct EpochOracle {
  std::map<std::string, uint64_t> relation_digests;
  std::vector<uint64_t> query_digests;
};

class ConcurrentServingChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void BuildHarness(const FaultProfile& profile) {
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
    // Readers hammer a small query pool; give the subplan cache a budget so
    // the (uid, version) keys get exercised across epochs.
    EvaluatorOptions options;
    options.cache_budget_tuples = 1 << 16;
    warehouse_->SetEvaluatorOptions(options);
    channel_ = std::make_unique<DeltaChannel>(profile);
    ingestor_ = std::make_unique<DeltaIngestor>(warehouse_.get(),
                                                source_.get(), channel_.get());
    // Record the oracle after *every* committed transition: one Receive()
    // can publish several epochs (buffered successors, recovery-ladder
    // corrections), and a reader may pin any of them.
    ingestor_->set_commit_hook([this](const CommitEvent&) {
      RecordOracle();
      return Status::Ok();
    });
    for (const char* text :
         {"FactSales", "select[quantity >= 3](FactSales)",
          "project[supp_region, quantity](FactSales)"}) {
      Result<ExprRef> query = ParseExpr(text);
      DWC_ASSERT_OK(query);
      queries_.push_back(std::move(query).value());
    }
    RecordOracle();  // Epoch 1: the loaded state.
  }

  // Writer-side: digest the just-published epoch. Runs on the writer thread
  // after every committed transition (and once at load), so by the time any
  // reader can pin epoch N, oracle[N] is either present or on its way —
  // readers wait for it.
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

  // Blocks until the writer has recorded `epoch` (bounded, to fail rather
  // than hang if publication ever outran recording).
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

  // A deliberately rolled-back integration: non-canonical delta (inserts a
  // tuple already present) with validation on. Must fail before any
  // mutation and publish nothing.
  void AttemptDoomedIntegration() {
    Result<Relation> base = warehouse_->ReconstructBase("Sales");
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    ASSERT_FALSE(base->empty());
    CanonicalDelta bogus;
    bogus.relation = "Sales";
    bogus.inserts = Relation(base->schema());
    bogus.inserts.Insert(*base->tuples().begin());
    bogus.deletes = Relation(base->schema());
    uint64_t epoch_before = warehouse_->current_epoch();
    warehouse_->set_validate_deltas(true);
    EXPECT_EQ(warehouse_->Integrate(bogus).code(),
              StatusCode::kInvalidArgument);
    warehouse_->set_validate_deltas(false);
    EXPECT_EQ(warehouse_->current_epoch(), epoch_before)
        << "a failed integration published an epoch";
  }

  // The writer loop: random updates through the faulty channel, pumping and
  // reconciling, recording the oracle after every committed transition,
  // with doomed integrations sprinkled in.
  void WriterLoop() {
    Rng rng(GetParam() * 131 + 9);
    std::vector<std::string> updatable = {"Sales", "Orders", "Customer",
                                          "Supplier", "Part", "Location"};
    UpdateStreamOptions options;
    options.max_inserts = 3;
    options.max_deletes = 2;
    options.db_options.int_domain = 100000;
    for (int step = 0; step < kWriterSteps; ++step) {
      Result<UpdateOp> op = GenerateRandomUpdate(
          source_->db(), updatable[rng.Below(updatable.size())], &rng,
          options);
      ASSERT_TRUE(op.ok()) << op.status().ToString();
      Result<CanonicalDelta> delta = source_->Apply(*op);
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      channel_->Send(*delta);
      for (std::optional<CanonicalDelta> got = channel_->Poll(); got;
           got = channel_->Poll()) {
        Status received = ingestor_->Receive(*got);
        ASSERT_TRUE(received.ok()) << received.ToString();
      }
      if (step % 7 == 3) {
        AttemptDoomedIntegration();
      }
      if (step % 10 == 9) {
        Status drained = ingestor_->Drain();
        ASSERT_TRUE(drained.ok()) << drained.ToString();
      }
    }
    Status drained = ingestor_->Drain();
    ASSERT_TRUE(drained.ok()) << drained.ToString();
  }

  // One pass of a reader: pin, verify the pinned epoch against the oracle,
  // release. Sets *passed unless an ASSERT failed (which returns early); a
  // pass the lag bound shed still passes.
  void VerifyOnce(Rng* rng, std::atomic<uint64_t>* verified,
                  std::atomic<uint64_t>* shed_seen, bool* passed) {
    *passed = false;
    SnapshotHandle snapshot = warehouse_->PinSnapshot();
    ASSERT_TRUE(snapshot.valid());
    EpochOracle oracle;
    ASSERT_TRUE(WaitForOracle(snapshot.epoch(), &oracle))
        << "oracle for epoch " << snapshot.epoch() << " never recorded";
    // Exactly one committed epoch's digests — every relation version.
    ASSERT_EQ(snapshot.relations().size(), oracle.relation_digests.size());
    for (const auto& [name, rel] : snapshot.relations()) {
      auto it = oracle.relation_digests.find(name);
      ASSERT_NE(it, oracle.relation_digests.end()) << name;
      ASSERT_EQ(RelationDigest(*rel), it->second)
          << "relation '" << name << "' at epoch " << snapshot.epoch()
          << " does not match the committed state";
    }
    // And every answer evaluated through the snapshot matches what the
    // writer computed when it published the epoch.
    size_t q = rng->Below(queries_.size());
    Result<Relation> answer = warehouse_->AnswerQueryAt(snapshot, queries_[q]);
    if (!answer.ok()) {
      // The lag bound may shed a slow reader; anything else is a bug.
      ASSERT_EQ(answer.status().code(), StatusCode::kAborted)
          << answer.status().ToString();
      shed_seen->fetch_add(1, std::memory_order_relaxed);
      *passed = true;
      return;
    }
    ASSERT_EQ(RelationDigest(*answer), oracle.query_digests[q])
        << "query " << q << " at epoch " << snapshot.epoch();
    verified->fetch_add(1, std::memory_order_relaxed);
    *passed = true;
  }

  // One reader: a first pass, then the start barrier, then passes until the
  // writer finishes or a pass fails. The barrier is reached after a failed
  // first pass too, so a failure fails the test instead of hanging it.
  void ReaderLoop(uint64_t reader_seed, std::atomic<uint64_t>* verified,
                  std::atomic<uint64_t>* shed_seen) {
    Rng rng(reader_seed);
    bool passed = false;
    VerifyOnce(&rng, verified, shed_seen, &passed);
    {
      std::lock_guard<std::mutex> lock(start_mu_);
      ++readers_started_;
    }
    start_cv_.notify_all();
    while (passed && !done_.load(std::memory_order_acquire)) {
      VerifyOnce(&rng, verified, shed_seen, &passed);
    }
  }

  void RunChaos() {
    std::atomic<uint64_t> verified{0};
    std::atomic<uint64_t> shed_seen{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaderThreads);
    for (int r = 0; r < kReaderThreads; ++r) {
      readers.emplace_back([this, r, &verified, &shed_seen] {
        ReaderLoop(GetParam() * 977 + static_cast<uint64_t>(r), &verified,
                   &shed_seen);
      });
    }
    // The writer starts only once every reader has made its first pass:
    // a writer that finished before any reader ran would leave nothing
    // verified.
    {
      std::unique_lock<std::mutex> lock(start_mu_);
      start_cv_.wait(lock,
                     [this] { return readers_started_ == kReaderThreads; });
    }
    WriterLoop();
    done_.store(true, std::memory_order_release);
    for (std::thread& reader : readers) {
      reader.join();
    }
    // The storm must have actually verified snapshots, and the final state
    // must be exactly consistent with the source.
    EXPECT_GT(verified.load(), 0u);
    DWC_ASSERT_OK(CheckConsistency(*warehouse_, source_->db()));
    EpochStats stats = warehouse_->epoch_stats();
    EXPECT_EQ(stats.live_snapshots, 0u);
    EXPECT_EQ(stats.retired_epochs, 0u)
        << "all superseded epochs should be reclaimed once readers drop";
    EXPECT_EQ(stats.current_epoch, warehouse_->current_epoch());
  }

  std::shared_ptr<WarehouseSpec> spec_;
  std::unique_ptr<Source> source_;
  std::unique_ptr<Warehouse> warehouse_;
  std::unique_ptr<DeltaChannel> channel_;
  std::unique_ptr<DeltaIngestor> ingestor_;
  std::vector<ExprRef> queries_;

  std::mutex oracle_mu_;
  std::condition_variable oracle_cv_;
  std::map<uint64_t, EpochOracle> oracle_;
  std::atomic<bool> done_{false};

  // The start barrier: readers that have made their first pass.
  std::mutex start_mu_;
  std::condition_variable start_cv_;
  int readers_started_ = 0;
};

TEST_P(ConcurrentServingChaosTest, CleanChannelStorm) {
  // Faultless transport: every commit is a plain incremental integration.
  // The storm stresses the in-place/copy-on-write decision itself — readers
  // arrive and leave while the writer commits back to back.
  FaultProfile profile;
  profile.seed = GetParam();
  BuildHarness(profile);
  RunChaos();
  EXPECT_EQ(source_->query_count(), 0u);
}

TEST_P(ConcurrentServingChaosTest, FaultyChannelStorm) {
  // Drops, duplicates, reordering and corruption force the recovery ladder
  // (retransmits, base resyncs, full rebuilds) to run *under* the readers:
  // every rung's state transition must publish atomically too.
  FaultProfile profile;
  profile.drop_rate = 0.1;
  profile.duplicate_rate = 0.1;
  profile.reorder_rate = 0.15;
  profile.corrupt_rate = 0.05;
  profile.seed = GetParam();
  BuildHarness(profile);
  RunChaos();
  EXPECT_EQ(source_->query_count(), ingestor_->stats().source_queries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentServingChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dwc
