#ifndef DWC_RUNTIME_CANCEL_H_
#define DWC_RUNTIME_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

#include "util/status.h"

namespace dwc {

// Rows an operator's loop handles between two cancellation checks, and
// between two budget charges: a deadline or budget is never overrun by more
// than this many rows of one operator's work.
inline constexpr size_t kCancelCheckTuples = 1024;

// Cooperative cancellation context for one governed operation (typically one
// query): a wall-clock deadline, an external cancel flag, and a materialized-
// tuple budget, checked together at every cancellation point.
//
// The evaluator checks the token at every operator entry and, inside the
// row loops of its join, filter, difference and projection operators, every
// kCancelCheckTuples rows (EvaluatorOptions::cancel). Evaluation runs on the
// calling thread, but Cancel() may come from any other thread — a
// disconnecting client, the governor, a test — so the flag and the charged
// total are atomics. The token only *reports* — discarding partial
// work, releasing snapshot pins and keeping the subplan cache clean are the
// callers' obligations (error propagation + RAII make all three automatic;
// see DESIGN.md §13).
//
// Budget semantics: Charge(n) accounts n freshly materialized tuples; once
// the running total exceeds budget_tuples the charge (and every later
// Check) fails with ResourceExhausted. Subplan-cache hits are deliberately
// never charged — recycling an already-materialized result costs no new
// memory.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;

  // Unset (default) means unbounded in that dimension.
  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void set_budget_tuples(size_t budget) { budget_tuples_ = budget; }

  // Convenience constructors for the common shapes.
  static std::shared_ptr<CancelToken> WithDeadline(Clock::duration timeout) {
    auto token = std::make_shared<CancelToken>();
    token->set_deadline(Clock::now() + timeout);
    return token;
  }
  static std::shared_ptr<CancelToken> WithBudget(size_t budget_tuples) {
    auto token = std::make_shared<CancelToken>();
    token->set_budget_tuples(budget_tuples);
    return token;
  }

  // External cancellation (a disconnecting client, an operator's kill).
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }
  size_t budget_tuples() const { return budget_tuples_; }
  size_t charged_tuples() const {
    return charged_.load(std::memory_order_relaxed);
  }
  // Tuples still affordable; SIZE_MAX when unbudgeted. Callers sizing big
  // allocations (e.g. a cross product's Reserve) clamp to this so an
  // over-budget operation fails before the allocation, not after.
  size_t RemainingBudget() const {
    if (budget_tuples_ == 0) {
      return std::numeric_limits<size_t>::max();
    }
    size_t charged = charged_tuples();
    return charged >= budget_tuples_ ? 0 : budget_tuples_ - charged;
  }

  // Accounts `tuples` newly materialized tuples against the budget.
  Status Charge(size_t tuples) const {
    if (budget_tuples_ == 0) {
      return Status::Ok();
    }
    size_t total =
        charged_.fetch_add(tuples, std::memory_order_relaxed) + tuples;
    if (total > budget_tuples_) {
      return BudgetExhausted(total);
    }
    return Status::Ok();
  }

  // The cancellation point: cancel flag first (free), then budget (one
  // atomic load), then the deadline (one clock read — still cheap next to
  // the kCancelCheckTuples rows between two checks).
  Status Check() const {
    if (cancelled()) {
      return Status::Aborted("query cancelled by caller");
    }
    if (budget_tuples_ != 0) {
      size_t charged = charged_tuples();
      if (charged > budget_tuples_) {
        return BudgetExhausted(charged);
      }
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::Ok();
  }

 private:
  Status BudgetExhausted(size_t charged) const;

  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  // 0 = unlimited. Set before the operation starts (not synchronized).
  size_t budget_tuples_ = 0;
  mutable std::atomic<size_t> charged_{0};
};

}  // namespace dwc

#endif  // DWC_RUNTIME_CANCEL_H_
