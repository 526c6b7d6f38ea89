#include "runtime/governor.h"

#include <algorithm>

#include "util/string_util.h"

namespace dwc {

const char* WorkClassName(WorkClass klass) {
  switch (klass) {
    case WorkClass::kRead:
      return "read";
    case WorkClass::kMaintenance:
      return "maintenance";
  }
  return "unknown";
}

const char* LoadLevelName(LoadLevel level) {
  switch (level) {
    case LoadLevel::kNormal:
      return "normal";
    case LoadLevel::kStaleOnly:
      return "stale-only";
    case LoadLevel::kMaintenanceOnly:
      return "maintenance-only";
  }
  return "unknown";
}

std::string GovernorStats::ToString() const {
  return StrCat(
      "level=", LoadLevelName(level),
      " admitted=", admitted_reads, "/", admitted_maintenance,
      " rejected=", rejected_reads, "/", rejected_maintenance,
      " shed_reads=", shed_reads, " stale_reads=", stale_reads,
      " timed_out=", timed_out_reads, "/", timed_out_maintenance,
      " (read/maintenance)");
}

void Governor::Ticket::Release() {
  if (governor_ != nullptr) {
    governor_->ReleaseSlot(klass_);
    governor_ = nullptr;
  }
}

size_t Governor::ConcurrencyLimit(WorkClass klass) const {
  size_t limit = klass == WorkClass::kRead
                     ? options_.max_concurrent_reads
                     : options_.max_concurrent_maintenance;
  return std::max<size_t>(limit, 1);
}

size_t Governor::QueueLimit(WorkClass klass) const {
  return klass == WorkClass::kRead ? options_.max_read_queue
                                   : options_.max_maintenance_queue;
}

LoadLevel Governor::ComputeLevel() const {
  const size_t read_queue = waiting_[static_cast<size_t>(WorkClass::kRead)];
  if (read_queue >= options_.maintenance_only_queue_depth) {
    return LoadLevel::kMaintenanceOnly;
  }
  if (read_queue >= options_.stale_only_queue_depth) {
    return LoadLevel::kStaleOnly;
  }
  return LoadLevel::kNormal;
}

Result<Governor::Ticket> Governor::Admit(WorkClass klass,
                                         const CancelToken* token,
                                         bool allow_stale) {
  const size_t k = static_cast<size_t>(klass);
  std::unique_lock<std::mutex> lock(mu_);
  const LoadLevel level = ComputeLevel();
  bool stale = false;
  if (klass == WorkClass::kRead) {
    if (level == LoadLevel::kMaintenanceOnly) {
      ++stats_.shed_reads;
      return Status::ResourceExhausted(
          "governor shed the read: load level is maintenance-only "
          "(catching the warehouse up); retry later");
    }
    if (level == LoadLevel::kStaleOnly) {
      if (!allow_stale) {
        ++stats_.shed_reads;
        return Status::ResourceExhausted(
            "governor shed the read: load level is stale-only and the "
            "caller cannot serve from a stale snapshot");
      }
      stale = true;
    }
  }
  // The queue bound counts waiters beyond the running set: a request that
  // can start immediately is admissible even at queue bound zero.
  if (running_[k] >= ConcurrencyLimit(klass) &&
      waiting_[k] >= QueueLimit(klass)) {
    if (klass == WorkClass::kRead) {
      ++stats_.rejected_reads;
    } else {
      ++stats_.rejected_maintenance;
    }
    return Status::ResourceExhausted(
        StrCat("governor rejected the ", WorkClassName(klass),
               ": admission queue is full (", waiting_[k], " waiting)"));
  }

  ++waiting_[k];
  auto can_run = [&] { return running_[k] < ConcurrencyLimit(klass); };
  bool admitted;
  if (token != nullptr && token->has_deadline()) {
    admitted = cv_[k].wait_until(lock, token->deadline(), can_run);
  } else {
    cv_[k].wait(lock, can_run);
    admitted = true;
  }
  --waiting_[k];
  if (!admitted) {
    if (klass == WorkClass::kRead) {
      ++stats_.timed_out_reads;
    } else {
      ++stats_.timed_out_maintenance;
    }
    return Status::DeadlineExceeded(
        StrCat("deadline expired while queued for a ",
               WorkClassName(klass), " slot"));
  }
  ++running_[k];
  if (klass == WorkClass::kRead) {
    ++stats_.admitted_reads;
    if (stale) {
      ++stats_.stale_reads;
    }
  } else {
    ++stats_.admitted_maintenance;
  }
  return Ticket(this, klass, stale);
}

void Governor::ReleaseSlot(WorkClass klass) {
  const size_t k = static_cast<size_t>(klass);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_[k] > 0) {
      --running_[k];
    }
  }
  cv_[k].notify_one();
}

LoadLevel Governor::level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ComputeLevel();
}

GovernorStats Governor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  GovernorStats snapshot = stats_;
  snapshot.level = ComputeLevel();
  return snapshot;
}

GovernorOptions Governor::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

void Governor::set_options(const GovernorOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    options_ = options;
  }
  // Raised limits may unblock waiters immediately.
  cv_[0].notify_all();
  cv_[1].notify_all();
}

}  // namespace dwc
