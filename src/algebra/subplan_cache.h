#ifndef DWC_ALGEBRA_SUBPLAN_CACHE_H_
#define DWC_ALGEBRA_SUBPLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/expr.h"
#include "relational/relation.h"

namespace dwc {

// Recycler cache for evaluated subplans, keyed by the interner's
// commutative-class id (ExprInterner::CidOf) plus a snapshot of the input
// relations' (uid, version) identities at evaluation time.
//
// Invalidation is purely version-based: Source::Apply and Integrate mutate
// relations through Insert/Erase/assignment, which bump the per-relation
// version counters, so a lookup whose snapshot no longer matches is a miss
// (and the stale entry is dropped on the spot). After a delta touching one
// source, only subplans transitively reading that source fail their
// snapshot check; everything else recycles. Fresh per-integration delta
// relations get fresh uids, so a plan over ins:/del: bindings can never
// falsely match a previous integration's entry.
//
// Memory is bounded by a cached-tuples budget with LRU eviction; budget 0
// disables the cache entirely (and the evaluator then never consults it,
// reproducing pre-cache behavior exactly).
//
// Thread safety: all operations take one internal mutex — lookups and
// inserts are serial by design; only cache *misses* are evaluated in
// parallel (by the caller), never the cache bookkeeping itself.
class SubplanCache {
 public:
  // Ordered (uid, version) pairs, one per input relation, in the producer's
  // sorted-input-name order (so commutative twins build identical
  // snapshots).
  using Snapshot = std::vector<std::pair<uint64_t, uint64_t>>;

  struct Hit {
    std::shared_ptr<const Relation> rel;
    // Structural id of the node that produced the entry; a requester with a
    // different structural id (a commutative twin) may need to realign
    // columns.
    uint64_t producer_id = 0;
  };

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;      // Lookup failures, including stale entries.
    uint64_t evictions = 0;   // Entries dropped to fit the budget.
    uint64_t inserts = 0;
    std::string ToString() const;
  };

  SubplanCache() = default;
  SubplanCache(const SubplanCache&) = delete;
  SubplanCache& operator=(const SubplanCache&) = delete;

  // Sets the cached-tuples budget. 0 disables and clears the cache.
  void set_budget(size_t tuples);
  size_t budget() const;

  // Returns the cached result for `cid` if its snapshot still matches;
  // drops the entry when it exists but is stale.
  std::optional<Hit> Lookup(uint64_t cid, const Snapshot& snapshot);

  // Stores an evaluated subplan, replacing any previous entry for `cid`,
  // then evicts least-recently-used entries until the budget holds.
  // Returns the number of evictions performed. Entries larger than the
  // whole budget are not stored. The entry holds `producer`, the interned
  // node that produced it, so the node and its cid stay interned as long
  // as the result is cached (the interner does not own its nodes).
  size_t Insert(uint64_t cid, uint64_t producer_id, Snapshot snapshot,
                std::shared_ptr<const Relation> rel,
                ExprRef producer = nullptr);

  void Clear();

  size_t entries() const;
  size_t cached_tuples() const;
  CacheStats stats() const;

 private:
  struct Entry {
    uint64_t producer_id = 0;
    ExprRef producer;
    Snapshot snapshot;
    std::shared_ptr<const Relation> rel;
    size_t tuples = 0;
    std::list<uint64_t>::iterator lru_pos;
  };

  // Must be called with mu_ held.
  void EraseLocked(uint64_t cid);

  mutable std::mutex mu_;
  size_t budget_ = 0;
  size_t total_tuples_ = 0;
  std::list<uint64_t> lru_;  // Front = most recently used.
  std::unordered_map<uint64_t, Entry> entries_;
  CacheStats stats_;
};

}  // namespace dwc

#endif  // DWC_ALGEBRA_SUBPLAN_CACHE_H_
