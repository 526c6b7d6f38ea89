#include "aggregate/aggregate_view.h"

#include "algebra/evaluator.h"
#include "util/string_util.h"

namespace dwc {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

std::string AggregateViewDef::ToString() const {
  std::vector<std::string> aggs;
  for (const AggSpec& spec : aggregates) {
    aggs.push_back(StrCat(AggFuncName(spec.func), "(",
                          spec.attr.empty() ? "*" : spec.attr, ") AS ",
                          spec.out_name));
  }
  return StrCat(name, " = SELECT ", Join(group_by, ", "), ", ",
                Join(aggs, ", "), " FROM ", source->ToString(), " GROUP BY ",
                Join(group_by, ", "));
}

Result<AggregateView> AggregateView::Create(AggregateViewDef def,
                                            const SchemaResolver& resolver) {
  AggregateView view;
  DWC_ASSIGN_OR_RETURN(view.source_schema_, InferSchema(*def.source, resolver));
  if (def.group_by.empty()) {
    return Status::InvalidArgument(
        StrCat("aggregate view '", def.name,
               "' needs at least one GROUP BY attribute"));
  }
  std::vector<Attribute> out_attrs;
  for (const std::string& attr : def.group_by) {
    std::optional<size_t> idx = view.source_schema_.IndexOf(attr);
    if (!idx.has_value()) {
      return Status::InvalidArgument(
          StrCat("group-by attribute '", attr, "' not in source schema ",
                 view.source_schema_.ToString()));
    }
    out_attrs.push_back(view.source_schema_.attribute(*idx));
  }
  for (const AggSpec& spec : def.aggregates) {
    if (spec.out_name.empty()) {
      return Status::InvalidArgument("aggregate output name must not be empty");
    }
    if (spec.func == AggFunc::kCount) {
      if (!spec.attr.empty()) {
        return Status::InvalidArgument("COUNT takes no attribute (use '*')");
      }
      out_attrs.push_back(Attribute{spec.out_name, ValueType::kInt});
      continue;
    }
    std::optional<size_t> idx = view.source_schema_.IndexOf(spec.attr);
    if (!idx.has_value()) {
      return Status::InvalidArgument(
          StrCat("aggregate attribute '", spec.attr, "' not in source schema ",
                 view.source_schema_.ToString()));
    }
    ValueType type = view.source_schema_.attribute(*idx).type;
    if (spec.func == AggFunc::kSum &&
        !(type == ValueType::kInt || type == ValueType::kDouble)) {
      return Status::InvalidArgument(
          StrCat("SUM over non-numeric attribute '", spec.attr, "'"));
    }
    out_attrs.push_back(Attribute{spec.out_name, type});
  }
  DWC_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(out_attrs)));
  view.def_ = std::move(def);
  view.materialized_ = std::make_shared<Relation>(std::move(out_schema));
  return view;
}

void AggregateView::CopyFrom(const AggregateView& other) {
  def_ = other.def_;
  source_schema_ = other.source_schema_;
  materialized_ = std::make_shared<Relation>(*other.materialized_);
  groups_ = other.groups_;
}

namespace {

using ValueCounts = std::map<Value, int64_t>;

Value AddValues(const Value& a, const Value& b) {
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    return Value::Int(a.AsInt() + b.AsInt());
  }
  return Value::Double(a.AsNumber() + b.AsNumber());
}

Value SubValues(const Value& a, const Value& b) {
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    return Value::Int(a.AsInt() - b.AsInt());
  }
  return Value::Double(a.AsNumber() - b.AsNumber());
}

Value ZeroOf(ValueType type) {
  return type == ValueType::kDouble ? Value::Double(0) : Value::Int(0);
}

int64_t CountOf(const ValueCounts& counts, const Value& value) {
  auto it = counts.find(value);
  return it == counts.end() ? 0 : it->second;
}

// The first value in [begin, end) whose count stays positive once
// `changes` are added to `counts`; null when there is none. Every value it
// skips has a negative change, so the walk is bounded by |changes|.
template <typename It>
const Value* FirstCounted(It begin, It end, const ValueCounts& counts,
                          const ValueCounts& changes) {
  for (It it = begin; it != end; ++it) {
    if (CountOf(counts, it->first) + CountOf(changes, it->first) > 0) {
      return &it->first;
    }
  }
  return nullptr;
}

// MIN (`max` false) or MAX of the values counted in `counts` + `changes`;
// NULL when no value is. On a tie the value already in `counts` wins, as it
// does when the changes are merged into the map.
Value Extremum(const ValueCounts& counts, const ValueCounts& changes,
               bool max) {
  const Value* old_best =
      max ? FirstCounted(counts.rbegin(), counts.rend(), counts, changes)
          : FirstCounted(counts.begin(), counts.end(), counts, changes);
  const Value* new_best =
      max ? FirstCounted(changes.rbegin(), changes.rend(), counts, changes)
          : FirstCounted(changes.begin(), changes.end(), counts, changes);
  if (old_best == nullptr) {
    return new_best == nullptr ? Value::Null() : *new_best;
  }
  if (new_best == nullptr) {
    return *old_best;
  }
  bool new_wins = max ? *old_best < *new_best : *new_best < *old_best;
  return new_wins ? *new_best : *old_best;
}

}  // namespace

Status AggregateView::Initialize(const Environment& env) {
  groups_.clear();
  // Fresh slot, not Clear(): a pinned epoch snapshot may still reference
  // the previous table.
  materialized_ = std::make_shared<Relation>(materialized_->schema());
  Evaluator evaluator(&env);
  DWC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> source,
                       evaluator.Eval(*def_.source));
  DWC_ASSIGN_OR_RETURN(Folded folded,
                       Fold(*source, Relation(source->schema())));
  Install(std::move(folded));
  return Status::Ok();
}

Status AggregateView::Accumulate(const Relation& delta, int sign,
                                 GroupChanges* changes) const {
  if (delta.empty()) {
    return Status::Ok();
  }
  const Schema& schema = delta.schema();
  DWC_ASSIGN_OR_RETURN(std::vector<size_t> group_idx,
                       schema.IndicesOf(def_.group_by));
  std::vector<size_t> agg_idx(def_.aggregates.size(), 0);
  for (size_t i = 0; i < def_.aggregates.size(); ++i) {
    const AggSpec& spec = def_.aggregates[i];
    if (spec.func == AggFunc::kCount) {
      continue;
    }
    std::optional<size_t> idx = schema.IndexOf(spec.attr);
    if (!idx.has_value()) {
      return Status::Internal(
          StrCat("aggregate attribute '", spec.attr, "' missing"));
    }
    agg_idx[i] = *idx;
  }
  for (const Tuple& tuple : delta.tuples()) {
    ProjectedRef group(tuple, group_idx);
    auto it = changes->find(group);
    if (it == changes->end()) {
      GroupChange change;
      change.value_changes.resize(def_.aggregates.size());
      auto state = groups_.find(group);
      if (state != groups_.end()) {
        change.count = state->second.count;
        change.sums = state->second.sums;
      } else if (sign < 0) {
        return Status::Internal(
            StrCat("delete for unknown group ", group.ToTuple().ToString(),
                   " in aggregate '", def_.name, "'"));
      } else {
        // Fresh group: neutral SUMs.
        for (const AggSpec& spec : def_.aggregates) {
          if (spec.func != AggFunc::kSum) {
            change.sums.push_back(Value::Null());
            continue;
          }
          size_t idx = *source_schema_.IndexOf(spec.attr);
          change.sums.push_back(ZeroOf(source_schema_.attribute(idx).type));
        }
      }
      it = changes->emplace(group.ToTuple(), std::move(change)).first;
    }
    GroupChange& change = it->second;
    change.count += sign;
    for (size_t i = 0; i < def_.aggregates.size(); ++i) {
      AggFunc func = def_.aggregates[i].func;
      if (func == AggFunc::kCount) {
        continue;  // Derived from the support count.
      }
      const Value& v = tuple.at(agg_idx[i]);
      if (func == AggFunc::kSum) {
        if (v.is_null()) {
          return Status::InvalidArgument("SUM over NULL value");
        }
        change.sums[i] = sign > 0 ? AddValues(change.sums[i], v)
                                  : SubValues(change.sums[i], v);
      } else if (!v.is_null()) {
        change.value_changes[i][v] += sign;
      }
    }
  }
  return Status::Ok();
}

Tuple AggregateView::MakeRow(
    const Tuple& group, int64_t count, const std::vector<Value>& sums,
    const std::vector<ValueCounts>& values,
    const std::vector<ValueCounts>* changes) const {
  static const ValueCounts kNoChanges;
  std::vector<Value> row = group.values();
  row.reserve(row.size() + def_.aggregates.size());
  for (size_t i = 0; i < def_.aggregates.size(); ++i) {
    switch (def_.aggregates[i].func) {
      case AggFunc::kCount:
        row.push_back(Value::Int(count));
        break;
      case AggFunc::kSum:
        row.push_back(sums[i]);
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        row.push_back(Extremum(values[i],
                               changes == nullptr ? kNoChanges : (*changes)[i],
                               def_.aggregates[i].func == AggFunc::kMax));
        break;
    }
  }
  return Tuple(std::move(row));
}

Result<AggregateView::Folded> AggregateView::Fold(const Relation& plus,
                                                  const Relation& minus) const {
  Folded folded;
  // Deletes first: a delete must find its group in the current state.
  DWC_RETURN_IF_ERROR(Accumulate(minus, -1, &folded.groups));
  DWC_RETURN_IF_ERROR(Accumulate(plus, +1, &folded.groups));
  folded.table = std::make_shared<Relation>(*materialized_);
  const std::vector<ValueCounts> no_values(def_.aggregates.size());
  for (const auto& [group, change] : folded.groups) {
    auto state = groups_.find(group);
    const std::vector<ValueCounts>& values =
        state == groups_.end() ? no_values : state->second.values;
    if (change.count < 0) {
      return Status::Internal(StrCat("more deletes than rows in group ",
                                     group.ToString(), " of aggregate '",
                                     def_.name, "'"));
    }
    for (size_t i = 0; i < def_.aggregates.size(); ++i) {
      for (const auto& [value, delta] : change.value_changes[i]) {
        if (CountOf(values[i], value) + delta < 0) {
          const AggSpec& spec = def_.aggregates[i];
          return Status::Internal(StrCat(
              "delete of ", AggFuncName(spec.func), "(", spec.attr,
              ") value ", value.ToString(), " never folded into group ",
              group.ToString(), " of aggregate '", def_.name, "'"));
        }
      }
    }
    if (state != groups_.end()) {
      folded.table->Erase(MakeRow(group, state->second.count,
                                  state->second.sums, values, nullptr));
    }
    if (change.count > 0) {
      folded.table->Insert(MakeRow(group, change.count, change.sums, values,
                                   &change.value_changes));
    }
  }
  return folded;
}

void AggregateView::Install(Folded folded) {
  for (auto& [group, change] : folded.groups) {
    if (change.count == 0) {
      groups_.erase(group);
      continue;
    }
    auto [it, fresh] = groups_.try_emplace(group);
    GroupState& state = it->second;
    state.count = change.count;
    state.sums = std::move(change.sums);
    if (fresh) {
      // Only inserts touched a fresh group: every change is a count.
      state.values = std::move(change.value_changes);
      continue;
    }
    for (size_t i = 0; i < def_.aggregates.size(); ++i) {
      for (const auto& [value, delta] : change.value_changes[i]) {
        auto [pos, added] = state.values[i].try_emplace(value, 0);
        (void)added;
        pos->second += delta;
        if (pos->second == 0) {
          state.values[i].erase(pos);
        }
      }
    }
  }
  materialized_ = std::move(folded.table);
}

Status AggregateView::ApplyDelta(const Relation& plus, const Relation& minus) {
  DWC_ASSIGN_OR_RETURN(Folded folded, Fold(plus, minus));
  Install(std::move(folded));
  return Status::Ok();
}

}  // namespace dwc
