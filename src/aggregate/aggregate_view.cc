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

Result<std::vector<size_t>> AggregateView::GroupIndices(
    const Schema& schema) const {
  return schema.IndicesOf(def_.group_by);
}

Result<std::vector<size_t>> AggregateView::AggIndices(
    const Schema& schema) const {
  std::vector<size_t> indices;
  indices.reserve(def_.aggregates.size());
  for (const AggSpec& spec : def_.aggregates) {
    if (spec.func == AggFunc::kCount) {
      indices.push_back(static_cast<size_t>(-1));
      continue;
    }
    std::optional<size_t> idx = schema.IndexOf(spec.attr);
    if (!idx.has_value()) {
      return Status::Internal(
          StrCat("aggregate attribute '", spec.attr, "' missing"));
    }
    indices.push_back(*idx);
  }
  return indices;
}

namespace {

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

}  // namespace

Status AggregateView::Initialize(const Environment& env) {
  groups_.clear();
  // Fresh slot, not Clear(): a pinned epoch snapshot may still reference
  // the previous table.
  materialized_ = std::make_shared<Relation>(materialized_->schema());
  Evaluator evaluator(&env);
  Result<std::shared_ptr<const Relation>> source = evaluator.Eval(*def_.source);
  if (!source.ok()) {
    return source.status();
  }
  const Schema& schema = (*source)->schema();
  for (const Tuple& tuple : (*source)->tuples()) {
    DWC_RETURN_IF_ERROR(FoldInsert(tuple, schema));
  }
  for (const auto& [group, state] : groups_) {
    (void)state;
    EmitRow(group);
  }
  return Status::Ok();
}

Status AggregateView::FoldInsert(const Tuple& tuple, const Schema& schema) {
  DWC_ASSIGN_OR_RETURN(std::vector<size_t> group_idx, GroupIndices(schema));
  DWC_ASSIGN_OR_RETURN(std::vector<size_t> agg_idx, AggIndices(schema));
  ProjectedRef group(tuple, group_idx);
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    it = groups_.emplace(group.ToTuple(), GroupState()).first;
  }
  GroupState& state = it->second;
  if (state.count == 0 && state.accums.empty()) {
    // Fresh group: neutral accumulators.
    for (size_t i = 0; i < def_.aggregates.size(); ++i) {
      const AggSpec& spec = def_.aggregates[i];
      if (spec.func == AggFunc::kSum) {
        std::optional<size_t> idx = source_schema_.IndexOf(spec.attr);
        state.accums.push_back(
            ZeroOf(source_schema_.attribute(*idx).type));
      } else {
        state.accums.push_back(Value::Null());
      }
    }
  }
  ++state.count;
  for (size_t i = 0; i < def_.aggregates.size(); ++i) {
    const AggSpec& spec = def_.aggregates[i];
    switch (spec.func) {
      case AggFunc::kCount:
        break;  // Derived from state.count.
      case AggFunc::kSum: {
        const Value& v = tuple.at(agg_idx[i]);
        if (v.is_null()) {
          return Status::InvalidArgument("SUM over NULL value");
        }
        state.accums[i] = AddValues(state.accums[i], v);
        break;
      }
      case AggFunc::kMin: {
        const Value& v = tuple.at(agg_idx[i]);
        if (state.accums[i].is_null() || v < state.accums[i]) {
          state.accums[i] = v;
        }
        break;
      }
      case AggFunc::kMax: {
        const Value& v = tuple.at(agg_idx[i]);
        if (state.accums[i].is_null() || state.accums[i] < v) {
          state.accums[i] = v;
        }
        break;
      }
    }
  }
  return Status::Ok();
}

Status AggregateView::FoldDelete(const Tuple& tuple, const Schema& schema) {
  DWC_ASSIGN_OR_RETURN(std::vector<size_t> group_idx, GroupIndices(schema));
  DWC_ASSIGN_OR_RETURN(std::vector<size_t> agg_idx, AggIndices(schema));
  auto it = groups_.find(ProjectedRef(tuple, group_idx));
  if (it == groups_.end()) {
    return Status::Internal(
        StrCat("delete for unknown group ",
               tuple.Project(group_idx).ToString(),
               " in aggregate '", def_.name, "'"));
  }
  GroupState& state = it->second;
  --state.count;
  for (size_t i = 0; i < def_.aggregates.size(); ++i) {
    const AggSpec& spec = def_.aggregates[i];
    switch (spec.func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
        state.accums[i] = SubValues(state.accums[i], tuple.at(agg_idx[i]));
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        // Deleting the current extremum invalidates the accumulator.
        if (tuple.at(agg_idx[i]) == state.accums[i]) {
          state.dirty = true;
        }
        break;
    }
  }
  return Status::Ok();
}

Status AggregateView::RecomputeGroup(const Tuple& group,
                                     const Environment& env) {
  // sigma_{group_by = group}(source), evaluated on the new state; the
  // evaluator's filter pushdown makes this an index probe on fact views.
  PredicateRef predicate = Predicate::True();
  for (size_t i = 0; i < def_.group_by.size(); ++i) {
    predicate = Predicate::And(
        predicate, Predicate::AttrEq(def_.group_by[i], group.at(i)));
  }
  ExprRef expr = Expr::Select(std::move(predicate), def_.source);
  Evaluator evaluator(&env);
  Result<std::shared_ptr<const Relation>> rows = evaluator.Eval(*expr);
  if (!rows.ok()) {
    return rows.status();
  }
  GroupState& state = groups_[group];
  state.count = 0;
  state.accums.clear();
  state.dirty = false;
  for (const Tuple& tuple : (*rows)->tuples()) {
    DWC_RETURN_IF_ERROR(FoldInsert(tuple, (*rows)->schema()));
  }
  return Status::Ok();
}

void AggregateView::EmitRow(const Tuple& group) {
  // Drop any stale row for this group, then write the fresh one.
  const Relation::Index& index = materialized_->GetIndex(def_.group_by);
  auto bucket = index.find(group);
  if (bucket != index.end() && !bucket->second.empty()) {
    // Copy first: Erase invalidates the bucket.
    Tuple stale = *bucket->second.front();
    materialized_->Erase(stale);
  }
  auto it = groups_.find(group);
  if (it == groups_.end() || it->second.count <= 0) {
    groups_.erase(group);
    return;
  }
  std::vector<Value> row = group.values();
  for (size_t i = 0; i < def_.aggregates.size(); ++i) {
    if (def_.aggregates[i].func == AggFunc::kCount) {
      row.push_back(Value::Int(it->second.count));
    } else {
      row.push_back(it->second.accums[i]);
    }
  }
  materialized_->Insert(Tuple(std::move(row)));
}

Status AggregateView::ApplyDelta(const Relation& plus, const Relation& minus,
                                 const Environment& new_env) {
  std::set<Tuple> touched;
  {
    DWC_ASSIGN_OR_RETURN(std::vector<size_t> group_idx,
                         GroupIndices(minus.schema()));
    for (const Tuple& tuple : minus.tuples()) {
      DWC_RETURN_IF_ERROR(FoldDelete(tuple, minus.schema()));
      touched.insert(tuple.Project(group_idx));
    }
  }
  {
    DWC_ASSIGN_OR_RETURN(std::vector<size_t> group_idx,
                         GroupIndices(plus.schema()));
    for (const Tuple& tuple : plus.tuples()) {
      DWC_RETURN_IF_ERROR(FoldInsert(tuple, plus.schema()));
      touched.insert(tuple.Project(group_idx));
    }
  }
  for (const Tuple& group : touched) {
    auto it = groups_.find(group);
    if (it != groups_.end() && it->second.dirty && it->second.count > 0) {
      DWC_RETURN_IF_ERROR(RecomputeGroup(group, new_env));
    }
    EmitRow(group);
  }
  return Status::Ok();
}

}  // namespace dwc
