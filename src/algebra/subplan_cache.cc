#include "algebra/subplan_cache.h"

#include "util/string_util.h"

namespace dwc {

std::string SubplanCache::CacheStats::ToString() const {
  return StrCat("hits=", hits, ", misses=", misses, ", evictions=", evictions,
                ", inserts=", inserts);
}

void SubplanCache::set_budget(size_t tuples) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = tuples;
  if (budget_ == 0) {
    entries_.clear();
    lru_.clear();
    total_tuples_ = 0;
    return;
  }
  while (total_tuples_ > budget_ && !lru_.empty()) {
    EraseLocked(lru_.back());
    ++stats_.evictions;
  }
}

size_t SubplanCache::budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

void SubplanCache::EraseLocked(uint64_t cid) {
  auto it = entries_.find(cid);
  if (it == entries_.end()) {
    return;
  }
  total_tuples_ -= it->second.tuples;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

std::optional<SubplanCache::Hit> SubplanCache::Lookup(
    uint64_t cid, const Snapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(cid);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second.snapshot != snapshot) {
    // An input changed since this entry was produced: stale, drop it.
    EraseLocked(cid);
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  ++stats_.hits;
  return Hit{it->second.rel, it->second.producer_id};
}

size_t SubplanCache::Insert(uint64_t cid, uint64_t producer_id,
                            Snapshot snapshot,
                            std::shared_ptr<const Relation> rel,
                            ExprRef producer) {
  if (rel == nullptr) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (budget_ == 0) {
    return 0;
  }
  const size_t tuples = rel->size();
  EraseLocked(cid);
  if (tuples > budget_) {
    return 0;  // Would never fit; do not thrash the rest of the cache.
  }
  size_t evicted = 0;
  while (total_tuples_ + tuples > budget_ && !lru_.empty()) {
    EraseLocked(lru_.back());
    ++evicted;
  }
  lru_.push_front(cid);
  Entry entry;
  entry.producer_id = producer_id;
  entry.producer = std::move(producer);
  entry.snapshot = std::move(snapshot);
  entry.rel = std::move(rel);
  entry.tuples = tuples;
  entry.lru_pos = lru_.begin();
  entries_.emplace(cid, std::move(entry));
  total_tuples_ += tuples;
  stats_.evictions += evicted;
  ++stats_.inserts;
  return evicted;
}

void SubplanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  total_tuples_ = 0;
}

size_t SubplanCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t SubplanCache::cached_tuples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_tuples_;
}

SubplanCache::CacheStats SubplanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dwc
