#include "relational/relation.h"

#include <algorithm>
#include <cassert>

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

bool Relation::Insert(Tuple tuple) {
  assert(tuple.size() == schema_.size());
  auto [it, inserted] = tuples_.insert(std::move(tuple));
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
  auto it = tuples_.find(tuple);
  if (it == tuples_.end()) {
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
  tuples_.erase(it);
  ++version_;
  return true;
}

void Relation::Clear() {
  if (!tuples_.empty()) {
    ++version_;
  }
  tuples_.clear();
  indexes_.clear();
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
  for (const Tuple& tuple : tuples_) {
    AddToIndex(&entry, &tuple);
  }
  auto [pos, inserted] = indexes_.emplace(std::move(key), std::move(entry));
  (void)inserted;
  return pos->second.index;
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> sorted(tuples_.begin(), tuples_.end());
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
    for (const Tuple& tuple : tuples_) {
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
  for (const Tuple& tuple : tuples_) {
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
  aligned.Reserve(tuples_.size());
  for (const Tuple& tuple : tuples_) {
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
