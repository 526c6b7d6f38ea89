#include "runtime/governor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "runtime/cancel.h"
#include "testing/test_util.h"

namespace dwc {
namespace {

GovernorOptions SmallOptions() {
  GovernorOptions options;
  options.max_concurrent_reads = 2;
  options.max_concurrent_maintenance = 1;
  options.max_read_queue = 3;
  options.max_maintenance_queue = 2;
  options.stale_only_queue_depth = 2;
  options.maintenance_only_queue_depth = 3;
  return options;
}

TEST(GovernorTest, AdmitsWithinLimitsAndReleasesViaRaii) {
  Governor governor(SmallOptions());
  {
    Result<Governor::Ticket> a = governor.AdmitRead();
    Result<Governor::Ticket> b = governor.AdmitRead();
    DWC_ASSERT_OK(a);
    DWC_ASSERT_OK(b);
    EXPECT_TRUE(a->valid());
    EXPECT_FALSE(a->stale_only());
  }
  // Both tickets released on scope exit: two more reads fit.
  DWC_ASSERT_OK(governor.AdmitRead());
  GovernorStats stats = governor.stats();
  EXPECT_EQ(stats.admitted_reads, 3u);
  EXPECT_EQ(stats.rejected_reads, 0u);
}

TEST(GovernorTest, ClassesHaveIndependentSlots) {
  Governor governor(SmallOptions());
  Result<Governor::Ticket> read = governor.AdmitRead();
  Result<Governor::Ticket> maintenance = governor.AdmitMaintenance();
  DWC_ASSERT_OK(read);
  DWC_ASSERT_OK(maintenance);
  GovernorStats stats = governor.stats();
  EXPECT_EQ(stats.admitted_reads, 1u);
  EXPECT_EQ(stats.admitted_maintenance, 1u);
}

TEST(GovernorTest, QueueTimeDeadlineSurfacesAsDeadlineExceeded) {
  GovernorOptions options = SmallOptions();
  options.max_concurrent_reads = 1;
  Governor governor(options);
  Result<Governor::Ticket> holder = governor.AdmitRead();
  DWC_ASSERT_OK(holder);
  auto token = CancelToken::WithDeadline(std::chrono::milliseconds(20));
  Result<Governor::Ticket> queued = governor.AdmitRead(token.get());
  ASSERT_FALSE(queued.ok());
  EXPECT_EQ(queued.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(governor.stats().timed_out_reads, 1u);
}

TEST(GovernorTest, ReleasingASlotWakesAQueuedWaiter) {
  GovernorOptions options = SmallOptions();
  options.max_concurrent_reads = 1;
  Governor governor(options);
  Result<Governor::Ticket> holder = governor.AdmitRead();
  DWC_ASSERT_OK(holder);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    Result<Governor::Ticket> ticket = governor.AdmitRead();
    EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
    admitted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(admitted.load(std::memory_order_acquire));
  holder->Release();
  waiter.join();
  EXPECT_TRUE(admitted.load(std::memory_order_acquire));
}

// Waits (bounded) until the governor reports `level`.
bool AwaitLevel(const Governor& governor, LoadLevel level) {
  for (int i = 0; i < 5000 && governor.level() != level; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return governor.level() == level;
}

TEST(GovernorTest, QueueDepthClimbsTheLadder) {
  Governor governor(SmallOptions());
  EXPECT_EQ(governor.level(), LoadLevel::kNormal);
  // Fill both read slots, then queue reads behind them: the read-queue
  // depth is the ladder's signal.
  Result<Governor::Ticket> a = governor.AdmitRead();
  Result<Governor::Ticket> b = governor.AdmitRead();
  DWC_ASSERT_OK(a);
  DWC_ASSERT_OK(b);
  std::vector<std::thread> waiters;
  // Frees the slots and joins the waiters. It also runs on every early
  // exit, so a failed step fails the test instead of leaving joinable
  // threads behind.
  struct Drain {
    Result<Governor::Ticket>& a;
    Result<Governor::Ticket>& b;
    std::vector<std::thread>& waiters;
    void Run() {
      a->Release();
      b->Release();
      for (std::thread& waiter : waiters) {
        waiter.join();
      }
      waiters.clear();
    }
    ~Drain() { Run(); }
  } drain{a, b, waiters};
  auto queue_read = [&](bool allow_stale, bool expect_stale) {
    waiters.emplace_back([&governor, allow_stale, expect_stale] {
      Result<Governor::Ticket> ticket =
          governor.AdmitRead(nullptr, allow_stale);
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      EXPECT_EQ(ticket->stale_only(), expect_stale);
    });
  };
  // Reads admitted at an elevated level must not wait for a slot: a
  // deadline turns a missed shed into a failure rather than a hang.
  auto bounded = [] {
    return CancelToken::WithDeadline(std::chrono::seconds(5));
  };
  queue_read(/*allow_stale=*/false, /*expect_stale=*/false);
  queue_read(/*allow_stale=*/false, /*expect_stale=*/false);
  // stale_only_queue_depth
  ASSERT_TRUE(AwaitLevel(governor, LoadLevel::kStaleOnly));

  // A fresh-snapshot read is shed; a stale-capable one is admitted (it
  // queues for a slot) and marked.
  Result<Governor::Ticket> fresh = governor.AdmitRead(bounded().get());
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kResourceExhausted);
  queue_read(/*allow_stale=*/true, /*expect_stale=*/true);
  // maintenance_only_queue_depth
  ASSERT_TRUE(AwaitLevel(governor, LoadLevel::kMaintenanceOnly));

  // Reads are refused outright — even stale-capable ones — but maintenance
  // still runs (that is the point of the level).
  Result<Governor::Ticket> any =
      governor.AdmitRead(bounded().get(), /*allow_stale=*/true);
  ASSERT_FALSE(any.ok());
  EXPECT_EQ(any.status().code(), StatusCode::kResourceExhausted);
  DWC_ASSERT_OK(governor.AdmitMaintenance());

  // Freeing the slots drains the queue, and the ladder comes back down.
  drain.Run();
  EXPECT_EQ(governor.level(), LoadLevel::kNormal);
  GovernorStats stats = governor.stats();
  EXPECT_EQ(stats.shed_reads, 2u);
  EXPECT_EQ(stats.stale_reads, 1u);
}

TEST(GovernorTest, FullQueueRejectsInsteadOfWaiting) {
  GovernorOptions options = SmallOptions();
  options.max_concurrent_maintenance = 1;
  options.max_maintenance_queue = 0;
  Governor governor(options);
  Result<Governor::Ticket> holder = governor.AdmitMaintenance();
  DWC_ASSERT_OK(holder);
  // Queue bound is zero: the next request cannot even wait.
  Result<Governor::Ticket> overflow = governor.AdmitMaintenance();
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.stats().rejected_maintenance, 1u);
}

TEST(GovernorTest, RaisingLimitsWakesWaiters) {
  GovernorOptions options = SmallOptions();
  options.max_concurrent_reads = 1;
  Governor governor(options);
  Result<Governor::Ticket> holder = governor.AdmitRead();
  DWC_ASSERT_OK(holder);
  std::thread waiter([&] {
    Result<Governor::Ticket> ticket = governor.AdmitRead();
    EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  options.max_concurrent_reads = 2;
  governor.set_options(options);
  waiter.join();
}

TEST(GovernorTest, ConcurrencyNeverExceedsTheLimit) {
  GovernorOptions options = SmallOptions();
  options.max_concurrent_reads = 3;
  options.max_read_queue = 64;
  Governor governor(options);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 12; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        Result<Governor::Ticket> ticket = governor.AdmitRead();
        if (!ticket.ok()) {
          // Queue overflow is legal under this storm; nothing else is.
          EXPECT_EQ(ticket.status().code(), StatusCode::kResourceExhausted);
          continue;
        }
        int now = running.fetch_add(1, std::memory_order_acq_rel) + 1;
        int seen = peak.load(std::memory_order_relaxed);
        while (now > seen &&
               !peak.compare_exchange_weak(seen, now,
                                           std::memory_order_relaxed)) {
        }
        std::this_thread::yield();
        running.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_LE(peak.load(), 3);
  EXPECT_GT(governor.stats().admitted_reads, 0u);
}

TEST(GovernorTest, StatsAndNamesRender) {
  Governor governor(SmallOptions());
  DWC_ASSERT_OK(governor.AdmitRead());
  std::string rendered = governor.stats().ToString();
  EXPECT_NE(rendered.find("level=normal"), std::string::npos);
  EXPECT_NE(rendered.find("admitted=1/0"), std::string::npos);
  EXPECT_EQ(std::string(WorkClassName(WorkClass::kRead)), "read");
  EXPECT_EQ(std::string(WorkClassName(WorkClass::kMaintenance)),
            "maintenance");
  EXPECT_EQ(std::string(LoadLevelName(LoadLevel::kStaleOnly)), "stale-only");
}

}  // namespace
}  // namespace dwc
