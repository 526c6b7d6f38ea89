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
#include <utility>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "util/result.h"

namespace dwc {

// A set-semantics relation: a schema plus an unordered set of tuples.
//
// Sharing: the tuple set lives in one reference-counted body, so copying a
// relation (construct or assign) shares the body in O(1). Insert, Erase,
// Clear and Reserve clone the body first when another relation shares it
// (clone-on-write); an unshared relation mutates in place. A moved-from or
// default-constructed relation points at one process-wide empty body.
// DeepCopy() gives a relation its own compact copy of the tuples.
//
// Relations keep lazily-built hash indexes on attribute subsets. Indexes are
// created on first use (typically by a join probing this relation) and are
// maintained incrementally on Insert/Erase, which is what makes repeated
// delta-maintenance rounds cheap: a warehouse view that changes by |Δ| tuples
// pays O(|Δ|) index upkeep, not an O(|V|) rebuild per refresh. Indexes
// belong to the relation object, not to the body: a copy starts with none,
// and a clone-on-write drops this relation's indexes (they point into the
// body it leaves), so GetIndex rebuilds them on next use.
//
// Thread safety: concurrent const access (tuples(), Contains(), GetIndex(),
// probing the returned index, and copying) is safe — lazy index
// construction is internally serialized. Mutation (Insert/Erase/Clear/
// Reserve/assignment) requires external serialization against all other
// access to the same relation object, which is how the warehouse uses
// relations: concurrent readers evaluate queries over a pinned epoch's
// read-only relations while the writer mutates only relations no reader can
// see, or holds the commit lock. Relations that share a body need no
// serialization among themselves: a mutator tests the body's reference
// count with an acquire load, so a body another thread has released (its
// decrement is a release) is seen with all that thread's reads finished,
// and a body still shared is cloned, never written.
class Relation {
 public:
  // Tuples equal under TupleHash/TupleEq are stored once. Both containers
  // can be probed with a ProjectedRef, which builds no key tuple.
  using TupleSet = std::unordered_set<Tuple, TupleHash, TupleEq>;
  // Key: the projection of a tuple onto the indexed attributes.
  // The pointers reference tuples in this relation's body (stable:
  // node-based set).
  using Index =
      std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash, TupleEq>;

  Relation() : body_(AcquireEmpty()) {}
  explicit Relation(Schema schema)
      : schema_(std::move(schema)), body_(new Body) {}
  ~Relation() { Release(body_); }

  // Relations are copyable (the copy shares the body and starts with no
  // indexes) and movable (moves transfer the body and the index cache, and
  // leave the source empty).
  //
  // Identity discipline for the subplan cache: every freshly constructed
  // relation — including copy- and move-*constructed* ones — gets a new uid,
  // so two distinct objects never share an identity. Assignment keeps the
  // destination's uid (it is the same storage cell changing content) and
  // bumps its version. A moved-from source is left with its old uid but its
  // content gone; bumping its version keeps any stale (uid, version)
  // snapshot of it from ever matching again.
  Relation(const Relation& other)
      : schema_(other.schema_), body_(Share(other.body_)) {}
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      schema_ = other.schema_;
      Release(std::exchange(body_, Share(other.body_)));
      indexes_.clear();
      ++version_;
    }
    return *this;
  }
  // index_mu_ only guards lazy builds and is never moved; movers must hold
  // the relation exclusively anyway.
  Relation(Relation&& other) noexcept
      : schema_(std::move(other.schema_)),
        body_(std::exchange(other.body_, AcquireEmpty())),
        indexes_(std::move(other.indexes_)) {
    other.indexes_.clear();
    ++other.version_;
  }
  Relation& operator=(Relation&& other) noexcept {
    if (this != &other) {
      schema_ = std::move(other.schema_);
      Release(std::exchange(body_, std::exchange(other.body_, AcquireEmpty())));
      indexes_ = std::move(other.indexes_);
      other.indexes_.clear();
      ++version_;
      ++other.version_;
    }
    return *this;
  }

  // A relation with the same content in a body of its own, its tuples
  // allocated together; the one copy that costs O(|tuples|).
  Relation DeepCopy() const;

  const Schema& schema() const { return schema_; }
  size_t size() const { return body_->tuples.size(); }
  bool empty() const { return body_->tuples.empty(); }
  // Valid until this relation is mutated, assigned over or destroyed.
  const TupleSet& tuples() const { return body_->tuples; }

  bool Contains(const Tuple& tuple) const {
    return body_->tuples.find(tuple) != body_->tuples.end();
  }
  bool Contains(const ProjectedRef& tuple) const {
    return body_->tuples.find(tuple) != body_->tuples.end();
  }

  // Returns true if the tuple was not already present. The tuple must match
  // the schema arity (checked by assert, it is a programming error otherwise).
  bool Insert(Tuple tuple);
  // Returns true if the tuple was present.
  bool Erase(const Tuple& tuple);
  void Clear();

  // Pre-sizes the tuple set for `n` additional tuples, killing rehash storms
  // when an operator knows its output cardinality estimate up front.
  // Reserving nothing leaves shared tuples shared.
  void Reserve(size_t n);

  // Returns the (possibly cached) index over `attrs`, which must all belong
  // to the schema. Probe it with the key tuple, or with a ProjectedRef of any
  // tuple that holds the key values. The reference stays valid until the
  // relation is destroyed or assigned over, or is mutated while it shares
  // its body: that mutation clones the body and drops every index.
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

  // The tuple set and the number of relations that point at it.
  struct Body {
    std::atomic<size_t> refs{1};
    TupleSet tuples;
  };

  // The empty body that default-constructed and moved-from relations share;
  // it holds a reference of its own, so it always reads as shared and is
  // never freed.
  static Body* AcquireEmpty();
  static Body* Share(Body* body) {
    body->refs.fetch_add(1, std::memory_order_relaxed);
    return body;
  }
  static void Release(Body* body) {
    if (body->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete body;
    }
  }
  // The one test a mutation makes. Acquire pairs with Release's decrement,
  // so a body another thread just let go of is written only after that
  // thread's reads of it.
  bool Shared() const {
    return body_->refs.load(std::memory_order_acquire) != 1;
  }
  // Gives this relation a copy of its shared body and drops its indexes.
  void Unshare();

  // Files `tuple` (owned by body_) under its key in `entry`, building the
  // key tuple only for a key the index does not hold yet.
  static void AddToIndex(IndexEntry* entry, const Tuple* tuple);

  Schema schema_;
  Body* body_;
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
