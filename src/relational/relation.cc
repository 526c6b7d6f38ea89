#include "relational/relation.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/string_util.h"

namespace dwc {

void Relation::AddToIndex(IndexEntry* entry, const Tuple* tuple) {
  ProjectedRef key(*tuple, entry->indices);
  auto bucket = entry->index.find(key);
  if (bucket == entry->index.end()) {
    bucket = entry->index.emplace(key.ToTuple(), std::vector<const Tuple*>())
                 .first;
  }
  bucket->second.push_back(tuple);
}

Relation::Body* Relation::AcquireEmpty() {
  static Body* const empty = new Body;
  return Share(empty);
}

void Relation::Unshare() {
  Body* fresh = new Body;
  fresh->tuples = body_->tuples;
  Release(std::exchange(body_, fresh));
  indexes_.clear();
}

Relation Relation::DeepCopy() const {
  Relation copy(schema_);
  copy.body_->tuples = body_->tuples;
  return copy;
}

bool Relation::Insert(Tuple tuple) {
  assert(tuple.size() == schema_.size());
  if (Shared()) {
    if (Contains(tuple)) {
      return false;
    }
    Unshare();
  }
  auto [it, inserted] = body_->tuples.insert(std::move(tuple));
  if (inserted) {
    ++version_;
    for (auto& [name, entry] : indexes_) {
      (void)name;
      AddToIndex(&entry, &*it);
    }
  }
  return inserted;
}

bool Relation::Erase(const Tuple& tuple) {
  if (Shared()) {
    if (!Contains(tuple)) {
      return false;
    }
    // `tuple` may live in the body Unshare lets go of.
    Tuple key = tuple;
    Unshare();
    return Erase(key);
  }
  auto it = body_->tuples.find(tuple);
  if (it == body_->tuples.end()) {
    return false;
  }
  const Tuple* stored = &*it;
  for (auto& [name, entry] : indexes_) {
    (void)name;
    auto bucket_it =
        entry.index.find(ProjectedRef(*stored, entry.indices));
    if (bucket_it != entry.index.end()) {
      auto& bucket = bucket_it->second;
      bucket.erase(std::remove(bucket.begin(), bucket.end(), stored),
                   bucket.end());
      if (bucket.empty()) {
        entry.index.erase(bucket_it);
      }
    }
  }
  body_->tuples.erase(it);
  ++version_;
  return true;
}

void Relation::Clear() {
  if (!empty()) {
    ++version_;
  }
  if (Shared()) {
    Release(std::exchange(body_, AcquireEmpty()));
  } else {
    body_->tuples.clear();
  }
  indexes_.clear();
}

void Relation::Reserve(size_t n) {
  if (n == 0) {
    return;
  }
  if (Shared()) {
    Unshare();
  }
  body_->tuples.reserve(body_->tuples.size() + n);
}

const Relation::Index& Relation::GetIndex(
    const std::vector<std::string>& attrs) const {
  std::string key = Join(attrs, ",");
  // Serializes lazy builds so concurrent evaluations can probe one shared
  // relation. References handed out stay valid: std::map nodes are stable
  // and a cached entry is never rebuilt.
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = indexes_.find(key);
  if (it != indexes_.end()) {
    return it->second.index;
  }
  IndexEntry entry;
  entry.attrs = attrs;
  Result<std::vector<size_t>> indices = schema_.IndicesOf(attrs);
  assert(indices.ok() && "GetIndex attributes must belong to the schema");
  entry.indices = std::move(indices).value();
  for (const Tuple& tuple : body_->tuples) {
    AddToIndex(&entry, &tuple);
  }
  auto [pos, inserted] = indexes_.emplace(std::move(key), std::move(entry));
  (void)inserted;
  return pos->second.index;
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> sorted(tuples().begin(), tuples().end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

bool Relation::SameContentAs(const Relation& other) const {
  if (!schema_.SameAttrsAs(other.schema())) {
    return false;
  }
  if (size() != other.size()) {
    return false;
  }
  if (schema_ == other.schema()) {
    for (const Tuple& tuple : tuples()) {
      if (!other.Contains(tuple)) {
        return false;
      }
    }
    return true;
  }
  Result<Relation> aligned = other.AlignTo(schema_);
  if (!aligned.ok()) {
    return false;
  }
  for (const Tuple& tuple : tuples()) {
    if (!aligned->Contains(tuple)) {
      return false;
    }
  }
  return true;
}

Result<Relation> Relation::AlignTo(const Schema& target) const {
  if (!schema_.SameAttrsAs(target)) {
    return Status::InvalidArgument(
        StrCat("cannot align ", schema_.ToString(), " to ", target.ToString()));
  }
  std::vector<std::string> names;
  names.reserve(target.size());
  for (const Attribute& attr : target.attributes()) {
    names.push_back(attr.name);
  }
  DWC_ASSIGN_OR_RETURN(std::vector<size_t> indices, schema_.IndicesOf(names));
  Relation aligned(target);
  aligned.Reserve(size());
  for (const Tuple& tuple : tuples()) {
    aligned.Insert(tuple.Project(indices));
  }
  return aligned;
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString();
  out += " {";
  bool first = true;
  for (const Tuple& tuple : SortedTuples()) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += tuple.ToString();
  }
  out += "}";
  return out;
}

}  // namespace dwc
