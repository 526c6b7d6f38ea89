#ifndef DWC_RELATIONAL_RELATION_H_
#define DWC_RELATIONAL_RELATION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "util/result.h"

namespace dwc {

// A set-semantics relation: a schema plus an unordered set of tuples.
//
// Relations keep lazily-built hash indexes on attribute subsets. Indexes are
// created on first use (typically by a join probing this relation) and are
// maintained incrementally on Insert/Erase, which is what makes repeated
// delta-maintenance rounds cheap: a warehouse view that changes by |Δ| tuples
// pays O(|Δ|) index upkeep, not an O(|V|) rebuild per refresh.
//
// Thread safety: concurrent const access (tuples(), Contains(), GetIndex()
// and probing the returned index) is safe — lazy index construction is
// internally serialized. Mutation (Insert/Erase/Clear/assignment) requires
// external serialization against all other access, which is how the parallel
// evaluator uses relations: shared operands are read-only for the duration
// of an evaluation, and all mutation happens in a single-threaded commit
// phase.
class Relation {
 public:
  // Tuples equal under TupleHash/TupleEq are stored once. Both containers
  // can be probed with a ProjectedRef, which builds no key tuple.
  using TupleSet = std::unordered_set<Tuple, TupleHash, TupleEq>;
  // Key: the projection of a tuple onto the indexed attributes.
  // The pointers reference tuples owned by tuples_ (stable: node-based set).
  using Index =
      std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash, TupleEq>;

  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  // Relations are copyable (indexes are dropped on copy) and movable.
  //
  // Identity discipline for the subplan cache: every freshly constructed
  // relation — including copy- and move-*constructed* ones — gets a new uid,
  // so two distinct objects never share an identity. Assignment keeps the
  // destination's uid (it is the same storage cell changing content) and
  // bumps its version. A moved-from source is left with its old uid but its
  // content gone; bumping its version keeps any stale (uid, version)
  // snapshot of it from ever matching again.
  Relation(const Relation& other)
      : schema_(other.schema_), tuples_(other.tuples_) {}
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      schema_ = other.schema_;
      tuples_ = other.tuples_;
      indexes_.clear();
      ++version_;
    }
    return *this;
  }
  // Moves transfer the index cache (index_mu_ only guards lazy builds and is
  // never moved; movers must hold the relation exclusively anyway).
  Relation(Relation&& other) noexcept
      : schema_(std::move(other.schema_)),
        tuples_(std::move(other.tuples_)),
        indexes_(std::move(other.indexes_)) {
    ++other.version_;
  }
  Relation& operator=(Relation&& other) noexcept {
    if (this != &other) {
      schema_ = std::move(other.schema_);
      tuples_ = std::move(other.tuples_);
      indexes_ = std::move(other.indexes_);
      ++version_;
      ++other.version_;
    }
    return *this;
  }

  const Schema& schema() const { return schema_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const TupleSet& tuples() const { return tuples_; }

  bool Contains(const Tuple& tuple) const {
    return tuples_.find(tuple) != tuples_.end();
  }
  bool Contains(const ProjectedRef& tuple) const {
    return tuples_.find(tuple) != tuples_.end();
  }

  // Returns true if the tuple was not already present. The tuple must match
  // the schema arity (checked by assert, it is a programming error otherwise).
  bool Insert(Tuple tuple);
  // Returns true if the tuple was present.
  bool Erase(const Tuple& tuple);
  void Clear();

  // Pre-sizes the tuple set for `n` additional tuples, killing rehash storms
  // when an operator knows its output cardinality estimate up front.
  void Reserve(size_t n) { tuples_.reserve(tuples_.size() + n); }

  // Returns the (possibly cached) index over `attrs`, which must all belong
  // to the schema. Probe it with the key tuple, or with a ProjectedRef of any
  // tuple that holds the key values. The reference stays valid until the
  // relation is destroyed or assigned over.
  const Index& GetIndex(const std::vector<std::string>& attrs) const;

  // Tuples in deterministic (lexicographic) order; for printing and tests.
  std::vector<Tuple> SortedTuples() const;

  // Extensional equality: same attribute names (any column order) and the
  // same set of tuples.
  bool SameContentAs(const Relation& other) const;

  // A copy of this relation with columns reordered to `target`, which must
  // have the same attribute names.
  Result<Relation> AlignTo(const Schema& target) const;

  // Multi-line rendering: schema header plus sorted tuples.
  std::string ToString() const;

  // Identity + content version for memoized evaluation. `uid()` is unique
  // per live object for the process lifetime; `version()` increments on
  // every content change (Insert/Erase that took effect, Clear of a
  // non-empty relation, any assignment). A cached result tagged with this
  // relation's (uid, version) is valid iff both still match.
  uint64_t uid() const { return uid_; }
  uint64_t version() const { return version_; }

 private:
  static uint64_t NextUid() {
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  struct IndexEntry {
    std::vector<std::string> attrs;
    std::vector<size_t> indices;
    Index index;
  };

  // Files `tuple` (owned by tuples_) under its key in `entry`, building the
  // key tuple only for a key the index does not hold yet.
  static void AddToIndex(IndexEntry* entry, const Tuple* tuple);

  Schema schema_;
  TupleSet tuples_;
  uint64_t uid_ = NextUid();
  uint64_t version_ = 0;
  // Keyed by comma-joined attribute list. Mutable: building an index does not
  // change the logical content. Entries are pointer-stable (map of unique_ptr
  // not needed: std::map nodes are stable). Lazy builds are serialized by
  // index_mu_ so concurrent readers can share one relation.
  mutable std::map<std::string, IndexEntry> indexes_;
  mutable std::mutex index_mu_;
};

}  // namespace dwc

#endif  // DWC_RELATIONAL_RELATION_H_
