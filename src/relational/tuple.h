#ifndef DWC_RELATIONAL_TUPLE_H_
#define DWC_RELATIONAL_TUPLE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "relational/value.h"
#include "util/hash.h"

namespace dwc {

// A tuple is a positional vector of values, interpreted against a Schema.
//
// The 64-bit hash over all values is computed once at construction and
// cached: tuples are immutable, and every tuple ends up in at least one
// hashed container (TupleSet, Index), usually several — re-hashing string
// fields on every insert, index build and probe dominated join cost before
// the cache.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values)
      : values_(std::move(values)), hash_(ComputeHash(values_)) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  // The sub-tuple at the given positions, in that order.
  Tuple Project(const std::vector<size_t>& indices) const;

  bool operator==(const Tuple& other) const { return values_ == other.values_; }
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  // Lexicographic; used only for deterministic printing.
  bool operator<(const Tuple& other) const;

  // O(1): returns the hash cached at construction.
  size_t Hash() const { return hash_; }

  // "<v1, v2, ...>".
  std::string ToString() const;

 private:
  static size_t ComputeHash(const std::vector<Value>& values) {
    size_t h = kEmptyHash;
    for (const Value& v : values) {
      h = HashCombine(h, v.Hash());
    }
    return h;
  }

  static constexpr size_t kEmptyHash = 0x7A9E;

  friend class ProjectedRef;
  // For ProjectedRef::ToTuple, which has the hash already.
  Tuple(std::vector<Value> values, size_t hash)
      : values_(std::move(values)), hash_(hash) {}

  std::vector<Value> values_;
  size_t hash_ = kEmptyHash;
};

// The projection of a tuple onto `indices`, viewed in place: it hashes and
// compares exactly as Tuple(tuple.Project(indices)) would, without copying a
// value. Hash containers keyed by Tuple (TupleSet, Relation::Index) take it
// as a probe, so a lookup builds no key tuple; ToTuple() builds one only
// when a key must be stored. Borrows both arguments.
class ProjectedRef {
 public:
  ProjectedRef(const Tuple& tuple, const std::vector<size_t>& indices)
      : tuple_(&tuple), indices_(&indices) {
    size_t h = Tuple::kEmptyHash;
    for (size_t idx : indices) {
      h = HashCombine(h, tuple.at(idx).Hash());
    }
    hash_ = h;
  }

  size_t size() const { return indices_->size(); }
  const Value& at(size_t i) const { return tuple_->at((*indices_)[i]); }
  size_t Hash() const { return hash_; }

  bool operator==(const Tuple& other) const {
    if (other.size() != size()) {
      return false;
    }
    for (size_t i = 0; i < size(); ++i) {
      if (at(i) != other.at(i)) {
        return false;
      }
    }
    return true;
  }

  // The projected tuple itself, reusing the hash computed here.
  Tuple ToTuple() const {
    std::vector<Value> values;
    values.reserve(size());
    for (size_t idx : *indices_) {
      values.push_back(tuple_->at(idx));
    }
    return Tuple(std::move(values), hash_);
  }

 private:
  const Tuple* tuple_;
  const std::vector<size_t>* indices_;
  size_t hash_;
};

inline Tuple Tuple::Project(const std::vector<size_t>& indices) const {
  return ProjectedRef(*this, indices).ToTuple();
}

// Transparent: hash containers keyed by Tuple accept a ProjectedRef probe.
struct TupleHash {
  using is_transparent = void;
  size_t operator()(const Tuple& t) const { return t.Hash(); }
  size_t operator()(const ProjectedRef& r) const { return r.Hash(); }
};

struct TupleEq {
  using is_transparent = void;
  bool operator()(const Tuple& a, const Tuple& b) const { return a == b; }
  bool operator()(const ProjectedRef& a, const Tuple& b) const {
    return a == b;
  }
  bool operator()(const Tuple& a, const ProjectedRef& b) const {
    return b == a;
  }
};

}  // namespace dwc

#endif  // DWC_RELATIONAL_TUPLE_H_
