#ifndef DWC_WAREHOUSE_EPOCH_H_
#define DWC_WAREHOUSE_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "relational/relation.h"

namespace dwc {

// Epoch-based snapshot isolation for the warehouse (ROADMAP: "queries never
// block integration").
//
// The model: the warehouse's committed states form a monotone sequence of
// *snapshot epochs*, each an immutable map from relation name to a frozen
// relation version (a shared_ptr<const Relation>). Integration publishes a
// new epoch as the final act of its serial commit phase; readers pin the
// current epoch through an RAII SnapshotHandle and evaluate against that
// frozen version set without taking any lock on the evaluation path. Old
// epochs are reclaimed when the last pinning reader drops.
//
// Not to be confused with the *delivery* epochs stamped on CanonicalDelta
// envelopes (warehouse/channel.h, JournalStamp): those sequence the source →
// warehouse transport and reset on resync; snapshot epochs sequence committed
// warehouse states and are process-local (they restart at 1 after Resume —
// durability of state is the storage layer's job, epochs only order the
// in-memory present).
//
// Concurrency contract:
//  * One writer at a time (the integrator); any number of concurrent
//    readers. The manager's mutex guards only the epoch list and pin
//    counts — never evaluation.
//  * A relation referenced by any epoch other than the writer's current
//    working state is immutable. The warehouse enforces this with a
//    dual-path commit (see Warehouse::ApplyPlanned): with zero pins it
//    mutates relations in place while holding the commit lock (so no reader
//    can pin mid-mutation); with pins outstanding it clones changed
//    relations and swaps the slots (copy-on-write), leaving every pinned
//    version untouched.
//  * Memory ordering: all epoch/pin state is published under mu_, so a
//    reader that obtains a handle sees every write the publishing thread
//    made before Publish (the mutex provides the happens-before edge). The
//    only lock-free read is the `shed` flag, an acquire/release atomic.

// A pinned snapshot more than this many epochs behind the current one is
// "shed": its handle is flagged and queries through it fail with
// Status::Aborted. Shedding cannot force-free memory — the handle still
// owns its version set — but it stops new work on the stale snapshot, and
// EpochStats::shed_snapshots counts it.
inline constexpr uint64_t kMaxEpochLag = 64;

struct EpochStats {
  uint64_t current_epoch = 0;      // 0 until the first Publish.
  uint64_t published = 0;          // Total epochs ever published.
  uint64_t live_snapshots = 0;     // Outstanding pinned handles.
  uint64_t retired_epochs = 0;     // Superseded epochs still held by pins.
  uint64_t retired_versions = 0;   // Relation versions only those epochs hold.
  uint64_t reclaimed_epochs = 0;   // Superseded epochs already freed.
  uint64_t shed_snapshots = 0;     // Handles flagged by kMaxEpochLag.
  uint64_t cow_commits = 0;        // Commits that took the clone-and-swap path.
  uint64_t inplace_commits = 0;    // Commits that mutated under the lock.

  std::string ToString() const;
};

namespace epoch_internal {

// One published epoch. `pins` is guarded by the owning manager's mutex;
// `shed` is read lock-free by query threads.
struct EpochRecord {
  uint64_t number = 0;
  std::map<std::string, std::shared_ptr<const Relation>> relations;
  uint64_t pins = 0;
  std::atomic<bool> shed{false};
};

}  // namespace epoch_internal

class EpochManager;

// Move-only RAII pin on one published epoch. While alive, every relation in
// relations() is frozen: the warehouse will copy-on-write around it. The pin
// is released (and reclamation may run) on destruction or Release().
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  SnapshotHandle(SnapshotHandle&& other) noexcept
      : manager_(std::move(other.manager_)), epoch_(std::move(other.epoch_)) {
    other.manager_.reset();
    other.epoch_.reset();
  }
  SnapshotHandle& operator=(SnapshotHandle&& other) noexcept {
    if (this != &other) {
      Release();
      manager_ = std::move(other.manager_);
      epoch_ = std::move(other.epoch_);
      other.manager_.reset();
      other.epoch_.reset();
    }
    return *this;
  }
  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;
  ~SnapshotHandle() { Release(); }

  // Unpins now (idempotent). The version set stays readable through any
  // shared_ptrs the caller copied out, but the epoch itself may be
  // reclaimed.
  void Release();

  bool valid() const { return epoch_ != nullptr; }
  uint64_t epoch() const { return valid() ? epoch_->number : 0; }
  // True once the reclamation policy flagged this snapshot as too far
  // behind; queries through a shed snapshot fail with Status::Aborted.
  bool shed() const {
    return valid() && epoch_->shed.load(std::memory_order_acquire);
  }

  // nullptr when absent. The pointer is valid for the life of the handle.
  const Relation* Find(const std::string& name) const;
  const std::map<std::string, std::shared_ptr<const Relation>>& relations()
      const;

 private:
  friend class EpochManager;
  SnapshotHandle(std::shared_ptr<EpochManager> manager,
                 std::shared_ptr<epoch_internal::EpochRecord> epoch)
      : manager_(std::move(manager)), epoch_(std::move(epoch)) {}

  std::shared_ptr<EpochManager> manager_;
  std::shared_ptr<epoch_internal::EpochRecord> epoch_;
};

// Owns the epoch list. Always held through shared_ptr (handles keep it
// alive past the owning warehouse if a snapshot outlives it).
class EpochManager : public std::enable_shared_from_this<EpochManager> {
 public:
  using VersionSet = std::map<std::string, std::shared_ptr<const Relation>>;

  // Pins the current epoch. Invalid handle when nothing is published yet.
  SnapshotHandle Pin();

  // Scoped writer commit. BeginCommit() decides the path: with zero pins it
  // keeps the manager locked (in_place() == true) so the caller may mutate
  // published relations directly — no reader can pin a half-mutated state;
  // with pins outstanding it releases the lock and the caller must
  // copy-on-write. Either way the commit ends with Publish() (the success
  // path) or destruction without it (the abort path: the previous epoch
  // stays current, readers never see the attempt).
  class Commit {
   public:
    Commit(Commit&&) = default;
    Commit(const Commit&) = delete;
    Commit& operator=(const Commit&) = delete;
    Commit& operator=(Commit&&) = delete;
    ~Commit();

    bool in_place() const { return in_place_; }
    void Publish(VersionSet versions);

   private:
    friend class EpochManager;
    Commit(EpochManager* manager, std::unique_lock<std::mutex> lock,
           bool in_place)
        : manager_(manager), lock_(std::move(lock)), in_place_(in_place) {}

    EpochManager* manager_;
    std::unique_lock<std::mutex> lock_;  // Held across the commit iff in_place_.
    bool in_place_ = false;
    bool published_ = false;
  };
  Commit BeginCommit();

  // Publishes a prebuilt version set as the next epoch (load / reset /
  // rebuild paths, which never mutate published relations in place).
  void Publish(VersionSet versions);

  uint64_t current_epoch() const;
  EpochStats stats() const;

 private:
  friend class SnapshotHandle;
  friend class Commit;

  void Unpin(const std::shared_ptr<epoch_internal::EpochRecord>& epoch);
  // All Locked helpers require mu_ held.
  void PublishLocked(VersionSet versions,
                     std::vector<std::shared_ptr<epoch_internal::EpochRecord>>*
                         graveyard);
  void ReclaimLocked(
      std::vector<std::shared_ptr<epoch_internal::EpochRecord>>* graveyard);
  uint64_t RetiredVersionsLocked() const;

  mutable std::mutex mu_;
  // Front = oldest still-live epoch, back = current.
  std::deque<std::shared_ptr<epoch_internal::EpochRecord>> epochs_;
  uint64_t next_epoch_ = 1;
  uint64_t live_pins_ = 0;
  uint64_t published_count_ = 0;
  uint64_t reclaimed_epochs_ = 0;
  uint64_t shed_count_ = 0;
  uint64_t cow_commits_ = 0;
  uint64_t inplace_commits_ = 0;
};

}  // namespace dwc

#endif  // DWC_WAREHOUSE_EPOCH_H_
