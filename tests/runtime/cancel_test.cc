#include "runtime/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "testing/test_util.h"
#include "util/status.h"

namespace dwc {
namespace {

TEST(CancelTokenTest, DefaultTokenNeverFires) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_EQ(token.budget_tuples(), 0u);
  DWC_EXPECT_OK(token.Check());
  DWC_EXPECT_OK(token.Charge(1u << 20));
  DWC_EXPECT_OK(token.Check());
  EXPECT_EQ(token.RemainingBudget(), std::numeric_limits<size_t>::max());
}

TEST(CancelTokenTest, CancelSurfacesAsAborted) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  Status status = token.Check();
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

TEST(CancelTokenTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  auto token = CancelToken::WithDeadline(std::chrono::milliseconds(-1));
  Status status = token->Check();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, FutureDeadlinePasses) {
  auto token = CancelToken::WithDeadline(std::chrono::hours(1));
  DWC_EXPECT_OK(token->Check());
}

TEST(CancelTokenTest, BudgetExhaustionSurfacesAsResourceExhausted) {
  auto token = CancelToken::WithBudget(100);
  DWC_EXPECT_OK(token->Charge(60));
  EXPECT_EQ(token->RemainingBudget(), 40u);
  DWC_EXPECT_OK(token->Charge(40));  // Exactly at budget: still fine.
  EXPECT_EQ(token->RemainingBudget(), 0u);
  Status over = token->Charge(1);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  // Once over, Check() fails too — later check points fail fast without
  // charging anything further.
  EXPECT_EQ(token->Check().code(), StatusCode::kResourceExhausted);
}

TEST(CancelTokenTest, CheckOrdersCancelBeforeBudgetBeforeDeadline) {
  auto token = CancelToken::WithBudget(1);
  token->set_deadline(CancelToken::Clock::now() - std::chrono::seconds(1));
  ASSERT_EQ(token->Charge(5).code(), StatusCode::kResourceExhausted);
  // Budget beats the (also expired) deadline...
  EXPECT_EQ(token->Check().code(), StatusCode::kResourceExhausted);
  // ...and an explicit cancel beats both.
  token->Cancel();
  EXPECT_EQ(token->Check().code(), StatusCode::kAborted);
}

TEST(CancelTokenTest, ChargeIsThreadSafe) {
  // 8 threads x 1000 charges of 1 against a budget of 4000: exactly the
  // first 4000 must succeed regardless of interleaving.
  auto token = CancelToken::WithBudget(4000);
  std::atomic<size_t> ok_charges{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (token->Charge(1).ok()) {
          ok_charges.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(ok_charges.load(), 4000u);
  EXPECT_EQ(token->charged_tuples(), 8000u);
  EXPECT_EQ(token->Check().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace dwc
