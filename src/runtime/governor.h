#ifndef DWC_RUNTIME_GOVERNOR_H_
#define DWC_RUNTIME_GOVERNOR_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "runtime/cancel.h"
#include "util/result.h"

namespace dwc {

// The two admission classes. Reads are translated queries
// (AnswerQuery/AnswerQueryAt); maintenance is everything that advances the
// warehouse state (Integrate/Drain). They get separate concurrency limits
// and separate queues so an overload of one can never starve the other
// outright — under pressure the ladder below *chooses* maintenance.
enum class WorkClass { kRead = 0, kMaintenance = 1 };

const char* WorkClassName(WorkClass klass);

// Degradation ladder, mildest to harshest. Queue-full rejection (the "reject
// new reads" rung) is always active and not a level of its own: a bounded
// queue rejects its overflow at every level.
//
//   kNormal           admit everything within queue/concurrency bounds.
//   kStaleOnly        reads are admitted only when the caller can serve them
//                     from an already-pinned stale snapshot (allow_stale):
//                     fresh pins would keep forcing the writer onto the
//                     copy-on-write path exactly when it is behind.
//   kMaintenanceOnly  reads are refused outright; every cycle goes to
//                     catching the warehouse up.
enum class LoadLevel { kNormal = 0, kStaleOnly = 1, kMaintenanceOnly = 2 };

const char* LoadLevelName(LoadLevel level);

struct GovernorOptions {
  // Per-class concurrency limits (running at once) and queue bounds
  // (waiting beyond the running set). Zero limits are clamped to 1.
  size_t max_concurrent_reads = 4;
  size_t max_concurrent_maintenance = 1;
  size_t max_read_queue = 16;
  size_t max_maintenance_queue = 16;
  // Ladder thresholds on the read-queue depth: each level engages when
  // that many reads are waiting. (A reader that lags too many epochs behind
  // is shed by the EpochManager instead; see kMaxEpochLag.)
  size_t stale_only_queue_depth = 8;
  size_t maintenance_only_queue_depth = 14;
};

// Counter snapshot for tests, the REPL `stats` command and bench_overload.
struct GovernorStats {
  size_t admitted_reads = 0;
  size_t admitted_maintenance = 0;
  // Bounded-queue overflow refusals (ResourceExhausted).
  size_t rejected_reads = 0;
  size_t rejected_maintenance = 0;
  // Ladder refusals of reads (ResourceExhausted at kStaleOnly without
  // allow_stale, or anything at kMaintenanceOnly).
  size_t shed_reads = 0;
  // Reads admitted with Ticket::stale_only() set.
  size_t stale_reads = 0;
  // Queue-time deadline expiries (DeadlineExceeded before a slot freed).
  size_t timed_out_reads = 0;
  size_t timed_out_maintenance = 0;
  LoadLevel level = LoadLevel::kNormal;

  std::string ToString() const;
};

// Bounded two-class admission queue in front of a warehouse.
//
// Every expensive operation asks for a Ticket first. Admission can fail
// three ways, each with the matching governor counter:
//   - ResourceExhausted: the class's queue is full, or the degradation
//     ladder refuses reads at the current load level;
//   - DeadlineExceeded: the caller's CancelToken deadline expired while
//     waiting in the queue (the same deadline then bounds execution);
//   - never silently: an admitted Ticket holds one concurrency slot until
//     it is released/destroyed (RAII).
//
// Thread-safe throughout; one governor fronts one warehouse.
class Governor {
 public:
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        governor_ = other.governor_;
        klass_ = other.klass_;
        stale_only_ = other.stale_only_;
        other.governor_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    // Frees the concurrency slot (idempotent).
    void Release();

    bool valid() const { return governor_ != nullptr; }
    // True when admission happened at kStaleOnly: the caller must serve
    // from a stale snapshot instead of pinning a fresh one.
    bool stale_only() const { return stale_only_; }

   private:
    friend class Governor;
    Ticket(Governor* governor, WorkClass klass, bool stale_only)
        : governor_(governor), klass_(klass), stale_only_(stale_only) {}

    Governor* governor_ = nullptr;
    WorkClass klass_ = WorkClass::kRead;
    bool stale_only_ = false;
  };

  explicit Governor(GovernorOptions options = GovernorOptions())
      : options_(options) {}

  // Admission. `token` may be null (no queue-time deadline); `allow_stale`
  // marks a read the caller can serve from a stale snapshot, which keeps it
  // admissible at kStaleOnly.
  Result<Ticket> Admit(WorkClass klass, const CancelToken* token = nullptr,
                       bool allow_stale = false);
  Result<Ticket> AdmitRead(const CancelToken* token = nullptr,
                           bool allow_stale = false) {
    return Admit(WorkClass::kRead, token, allow_stale);
  }
  Result<Ticket> AdmitMaintenance(const CancelToken* token = nullptr) {
    return Admit(WorkClass::kMaintenance, token);
  }

  LoadLevel level() const;
  GovernorStats stats() const;
  GovernorOptions options() const;
  // Takes effect for subsequent admissions; waiters re-read limits on wake.
  void set_options(const GovernorOptions& options);

 private:
  static constexpr size_t kClasses = 2;

  size_t ConcurrencyLimit(WorkClass klass) const;  // mu_ held.
  size_t QueueLimit(WorkClass klass) const;        // mu_ held.
  LoadLevel ComputeLevel() const;                  // mu_ held.
  void ReleaseSlot(WorkClass klass);

  mutable std::mutex mu_;
  std::condition_variable cv_[kClasses];
  GovernorOptions options_;
  size_t running_[kClasses] = {0, 0};
  size_t waiting_[kClasses] = {0, 0};
  GovernorStats stats_;
};

}  // namespace dwc

#endif  // DWC_RUNTIME_GOVERNOR_H_
