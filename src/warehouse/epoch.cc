#include "warehouse/epoch.h"

#include <utility>

#include "util/string_util.h"

namespace dwc {

std::string EpochStats::ToString() const {
  return StrCat("epoch=", current_epoch, " published=", published,
                " live_snapshots=", live_snapshots,
                " retired_epochs=", retired_epochs,
                " retired_versions=", retired_versions,
                " reclaimed_epochs=", reclaimed_epochs,
                " shed_snapshots=", shed_snapshots,
                " cow_commits=", cow_commits,
                " inplace_commits=", inplace_commits);
}

void SnapshotHandle::Release() {
  if (epoch_ != nullptr && manager_ != nullptr) {
    manager_->Unpin(epoch_);
  }
  epoch_.reset();
  manager_.reset();
}

const Relation* SnapshotHandle::Find(const std::string& name) const {
  if (!valid()) {
    return nullptr;
  }
  auto it = epoch_->relations.find(name);
  return it == epoch_->relations.end() ? nullptr : it->second.get();
}

const std::map<std::string, std::shared_ptr<const Relation>>&
SnapshotHandle::relations() const {
  static const std::map<std::string, std::shared_ptr<const Relation>> kEmpty;
  return valid() ? epoch_->relations : kEmpty;
}

SnapshotHandle EpochManager::Pin() {
  std::lock_guard<std::mutex> lock(mu_);
  if (epochs_.empty()) {
    return SnapshotHandle();
  }
  std::shared_ptr<epoch_internal::EpochRecord> current = epochs_.back();
  ++current->pins;
  ++live_pins_;
  return SnapshotHandle(shared_from_this(), std::move(current));
}

void EpochManager::Unpin(
    const std::shared_ptr<epoch_internal::EpochRecord>& epoch) {
  // Destroy reclaimed relation storage outside the lock: a large version
  // set's destructor must not extend the writer's critical section (or a
  // concurrent reader's Pin latency).
  std::vector<std::shared_ptr<epoch_internal::EpochRecord>> graveyard;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --epoch->pins;
    --live_pins_;
    ReclaimLocked(&graveyard);
  }
}

EpochManager::Commit::~Commit() {
  if (manager_ != nullptr && !published_) {
    // Abort path: nothing was published, the previous epoch stays current.
    // Just drop the lock (if the in-place path held it).
    if (lock_.owns_lock()) {
      lock_.unlock();
    }
  }
}

void EpochManager::Commit::Publish(VersionSet versions) {
  std::vector<std::shared_ptr<epoch_internal::EpochRecord>> graveyard;
  if (!lock_.owns_lock()) {
    lock_.lock();
  }
  manager_->PublishLocked(std::move(versions), &graveyard);
  if (in_place_) {
    ++manager_->inplace_commits_;
  } else {
    ++manager_->cow_commits_;
  }
  published_ = true;
  lock_.unlock();
}

EpochManager::Commit EpochManager::BeginCommit() {
  std::unique_lock<std::mutex> lock(mu_);
  const bool in_place = live_pins_ == 0;
  if (!in_place) {
    lock.unlock();
  }
  return Commit(this, std::move(lock), in_place);
}

void EpochManager::Publish(VersionSet versions) {
  std::vector<std::shared_ptr<epoch_internal::EpochRecord>> graveyard;
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked(std::move(versions), &graveyard);
}

void EpochManager::PublishLocked(
    VersionSet versions,
    std::vector<std::shared_ptr<epoch_internal::EpochRecord>>* graveyard) {
  auto record = std::make_shared<epoch_internal::EpochRecord>();
  record->number = next_epoch_++;
  record->relations = std::move(versions);
  epochs_.push_back(std::move(record));
  ++published_count_;
  const uint64_t current = epochs_.back()->number;
  // Backpressure policy: flag pinned snapshots that have fallen more than
  // kMaxEpochLag epochs behind. The flag stops new queries on the handle
  // (Status::Aborted) and surfaces through the stats; the memory itself
  // frees when the handle finally drops.
  for (const auto& epoch : epochs_) {
    if (current - epoch->number > kMaxEpochLag && epoch->pins > 0 &&
        !epoch->shed.load(std::memory_order_relaxed)) {
      epoch->shed.store(true, std::memory_order_release);
      shed_count_ += epoch->pins;
    }
  }
  ReclaimLocked(graveyard);
}

void EpochManager::ReclaimLocked(
    std::vector<std::shared_ptr<epoch_internal::EpochRecord>>* graveyard) {
  // Every superseded epoch with no pins is dead: nobody can reach it again
  // (Pin only hands out the back). Intermediate epochs reclaim too, not
  // just the front — a long-pinned old snapshot must not hold hostage the
  // epochs published after it.
  for (size_t i = 0; i + 1 < epochs_.size();) {
    if (epochs_[i]->pins == 0) {
      graveyard->push_back(std::move(epochs_[i]));
      epochs_.erase(epochs_.begin() + static_cast<long>(i));
      ++reclaimed_epochs_;
    } else {
      ++i;
    }
  }
}

uint64_t EpochManager::RetiredVersionsLocked() const {
  if (epochs_.empty()) {
    return 0;
  }
  // Relation versions held only by superseded epochs: entries whose slot
  // object differs from the current epoch's slot for the same name. An
  // object shared by several retired epochs counts once per epoch — the
  // number is a pressure gauge, not an exact byte count.
  const auto& current = epochs_.back()->relations;
  uint64_t retired = 0;
  for (size_t i = 0; i + 1 < epochs_.size(); ++i) {
    for (const auto& [name, rel] : epochs_[i]->relations) {
      auto it = current.find(name);
      if (it == current.end() || it->second.get() != rel.get()) {
        ++retired;
      }
    }
  }
  return retired;
}

uint64_t EpochManager::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.empty() ? 0 : epochs_.back()->number;
}

EpochStats EpochManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EpochStats stats;
  stats.current_epoch = epochs_.empty() ? 0 : epochs_.back()->number;
  stats.published = published_count_;
  stats.live_snapshots = live_pins_;
  stats.retired_epochs =
      epochs_.empty() ? 0 : static_cast<uint64_t>(epochs_.size()) - 1;
  stats.retired_versions = RetiredVersionsLocked();
  stats.reclaimed_epochs = reclaimed_epochs_;
  stats.shed_snapshots = shed_count_;
  stats.cow_commits = cow_commits_;
  stats.inplace_commits = inplace_commits_;
  return stats;
}

}  // namespace dwc
