#include "algebra/evaluator.h"

#include <algorithm>
#include <optional>

#include "util/string_util.h"

namespace dwc {

namespace {

// Wraps a borrowed relation in a non-owning shared_ptr.
std::shared_ptr<const Relation> Alias(const Relation* rel) {
  return std::shared_ptr<const Relation>(rel, [](const Relation*) {});
}

std::shared_ptr<const Relation> Own(Relation rel) {
  return std::make_shared<const Relation>(std::move(rel));
}

// Output attribute names of `expr` without evaluating it; nullopt if a name
// does not resolve (the caller falls back to plain evaluation, which
// reports the error properly).
std::optional<std::vector<std::string>> OutputNames(const Expr& expr,
                                                    const Environment& env) {
  switch (expr.kind()) {
    case Expr::Kind::kBase: {
      const Relation* rel = env.Find(expr.base_name());
      if (rel == nullptr) {
        return std::nullopt;
      }
      std::vector<std::string> names;
      names.reserve(rel->schema().size());
      for (const Attribute& attr : rel->schema().attributes()) {
        names.push_back(attr.name);
      }
      return names;
    }
    case Expr::Kind::kEmpty: {
      std::vector<std::string> names;
      for (const Attribute& attr : expr.empty_schema().attributes()) {
        names.push_back(attr.name);
      }
      return names;
    }
    case Expr::Kind::kSelect:
      return OutputNames(*expr.child(), env);
    case Expr::Kind::kProject:
      return expr.attrs();
    case Expr::Kind::kRename: {
      auto child = OutputNames(*expr.child(), env);
      if (!child.has_value()) {
        return std::nullopt;
      }
      for (std::string& name : *child) {
        auto it = expr.renames().find(name);
        if (it != expr.renames().end()) {
          name = it->second;
        }
      }
      return child;
    }
    case Expr::Kind::kJoin: {
      auto left = OutputNames(*expr.left(), env);
      auto right = OutputNames(*expr.right(), env);
      if (!left.has_value() || !right.has_value()) {
        return std::nullopt;
      }
      for (const std::string& name : *right) {
        if (std::find(left->begin(), left->end(), name) == left->end()) {
          left->push_back(name);
        }
      }
      return left;
    }
    case Expr::Kind::kUnion:
    case Expr::Kind::kDifference:
      return OutputNames(*expr.left(), env);
  }
  return std::nullopt;
}

// Concatenates one probe/build match into an output tuple in canonical
// left-then-right-extra column order.
Tuple ConcatMatch(const Tuple& pt, const Tuple& bt, bool build_right,
                  const std::vector<size_t>& right_extra) {
  const Tuple& lt = build_right ? pt : bt;
  const Tuple& rt = build_right ? bt : pt;
  std::vector<Value> values = lt.values();
  for (size_t idx : right_extra) {
    values.push_back(rt.at(idx));
  }
  return Tuple(std::move(values));
}

// Inserts `right`'s tuples into a copy of `left` (set union). The copy
// shares `left`'s tuples, and clones them only when `right` is nonempty.
Result<Relation> UnionInto(const Relation& left, const Relation& right) {
  if (!left.schema().SameAttrsAs(right.schema())) {
    return Status::InvalidArgument(
        StrCat("union operands have different schemas: ",
               left.schema().ToString(), " vs ", right.schema().ToString()));
  }
  Relation out(left);
  out.Reserve(right.size());
  if (right.schema() == out.schema()) {
    for (const Tuple& tuple : right.tuples()) {
      out.Insert(tuple);
    }
  } else {
    DWC_ASSIGN_OR_RETURN(Relation aligned, right.AlignTo(out.schema()));
    for (const Tuple& tuple : aligned.tuples()) {
      out.Insert(tuple);
    }
  }
  return out;
}

// Adds the projection of `tuple` onto `indices` to `keys`, building a key
// tuple only when the set does not hold it yet.
void AddKey(Relation::TupleSet* keys, const Tuple& tuple,
            const std::vector<size_t>& indices) {
  ProjectedRef key(tuple, indices);
  if (keys->find(key) == keys->end()) {
    keys->insert(key.ToTuple());
  }
}

// Extracts top-level `attr = constant` conjuncts of `predicate` whose
// attribute lives in `schema`, one per attribute (first occurrence wins —
// the caller re-applies the full predicate afterwards, so this is only a
// superset restriction). Appends attr names and key values in tandem.
void CollectEqualityConjuncts(const Predicate& predicate,
                              const Schema& schema,
                              std::vector<std::string>* attrs,
                              std::vector<Value>* values) {
  switch (predicate.kind()) {
    case Predicate::Kind::kAnd:
      CollectEqualityConjuncts(*predicate.left(), schema, attrs, values);
      CollectEqualityConjuncts(*predicate.right(), schema, attrs, values);
      return;
    case Predicate::Kind::kCmp: {
      if (predicate.op() != CmpOp::kEq) {
        return;
      }
      const Operand* attr_side = nullptr;
      const Operand* const_side = nullptr;
      if (predicate.lhs().is_attr() && !predicate.rhs().is_attr()) {
        attr_side = &predicate.lhs();
        const_side = &predicate.rhs();
      } else if (predicate.rhs().is_attr() && !predicate.lhs().is_attr()) {
        attr_side = &predicate.rhs();
        const_side = &predicate.lhs();
      } else {
        return;
      }
      if (!schema.Contains(attr_side->attr())) {
        return;
      }
      for (const std::string& existing : *attrs) {
        if (existing == attr_side->attr()) {
          return;  // One equality per attribute.
        }
      }
      attrs->push_back(attr_side->attr());
      values->push_back(const_side->value());
      return;
    }
    default:
      return;  // OR / NOT / TRUE contribute nothing (conservative).
  }
}

// The cancellation point inside an operator's row loop: every
// kCancelCheckTuples rows, charges the tuples added to `out` since the last
// charge and re-checks the token. Finish() charges the rest. Free when no
// token is wired.
class RowMeter {
 public:
  RowMeter(const CancelToken* cancel, const Relation& out)
      : cancel_(cancel), out_(out), charged_(out.size()) {}

  Status Next() {
    if (cancel_ == nullptr || ++rows_ % kCancelCheckTuples != 0) {
      return Status::Ok();
    }
    DWC_RETURN_IF_ERROR(Finish());
    return cancel_->Check();
  }

  Status Finish() {
    if (cancel_ == nullptr) {
      return Status::Ok();
    }
    const size_t produced = out_.size() - charged_;
    charged_ = out_.size();
    return cancel_->Charge(produced);
  }

 private:
  const CancelToken* cancel_;
  const Relation& out_;
  size_t rows_ = 0;
  size_t charged_;
};

}  // namespace

void EvalStats::MergeFrom(const EvalStats& other) {
  joins += other.joins;
  pushdown_joins += other.pushdown_joins;
  differences += other.differences;
  pushdown_differences += other.pushdown_differences;
  index_probes += other.index_probes;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_evictions += other.cache_evictions;
  source_reads += other.source_reads;
}

std::string EvalStats::ToString() const {
  return StrCat("joins=", joins, " (pushdown ", pushdown_joins,
                "), differences=", differences, " (pushdown ",
                pushdown_differences, "), index_probes=", index_probes,
                ", cache=", cache_hits, "/", cache_hits + cache_misses,
                " hits (", cache_evictions, " evictions), source_reads=",
                source_reads);
}

bool Evaluator::WorthPushdown(size_t actual, size_t estimate) const {
  return actual <= options_.pushdown_max_keys ||
         actual * options_.pushdown_selectivity_factor < estimate;
}

// Hash-joins two materialized relations (natural join), building on
// `right` when it is a stable environment binding: its cached index then
// serves every later refresh, which is what makes delta maintenance
// O(|delta|).
Result<Relation> Evaluator::HashJoin(const Relation& left,
                                     const Relation& right,
                                     bool prefer_build_right) {
  const Schema& ls = left.schema();
  const Schema& rs = right.schema();
  std::vector<std::string> join_attrs = ls.CommonWith(rs);
  std::vector<Attribute> out_attrs = ls.attributes();
  std::vector<size_t> right_extra;
  for (size_t i = 0; i < rs.size(); ++i) {
    const Attribute& attr = rs.attribute(i);
    std::optional<size_t> idx = ls.IndexOf(attr.name);
    if (idx.has_value()) {
      if (ls.attribute(*idx).type != attr.type) {
        return Status::InvalidArgument(
            StrCat("join attribute '", attr.name, "' has conflicting types"));
      }
    } else {
      out_attrs.push_back(attr);
      right_extra.push_back(i);
    }
  }
  DWC_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(out_attrs)));
  Relation out(std::move(out_schema));
  RowMeter meter(options_.cancel, out);

  if (join_attrs.empty()) {
    // Cross-product-shaped join (no common attributes) — the pathological
    // translated-query shape the governor exists to bound. Clamp the
    // up-front reservation to the remaining tuple budget, and meter every
    // emitted pair, so a deadline/budget fires mid-product instead of after
    // |L|x|R| work.
    const size_t product = left.size() * right.size();
    size_t reserve = product;
    if (options_.cancel != nullptr) {
      reserve = std::min(product, options_.cancel->RemainingBudget());
    }
    out.Reserve(reserve);
    for (const Tuple& lt : left.tuples()) {
      for (const Tuple& rt : right.tuples()) {
        DWC_RETURN_IF_ERROR(meter.Next());
        std::vector<Value> values = lt.values();
        for (size_t idx : right_extra) {
          values.push_back(rt.at(idx));
        }
        out.Insert(Tuple(std::move(values)));
      }
    }
    DWC_RETURN_IF_ERROR(meter.Finish());
    return out;
  }

  bool build_right =
      prefer_build_right ? true : right.size() >= left.size();
  const Relation& build = build_right ? right : left;
  const Relation& probe = build_right ? left : right;
  DWC_ASSIGN_OR_RETURN(std::vector<size_t> probe_key,
                       probe.schema().IndicesOf(join_attrs));
  const Relation::Index& index = build.GetIndex(join_attrs);
  // Key/foreign-key joins emit about one output row per probe row.
  out.Reserve(probe.size());
  for (const Tuple& pt : probe.tuples()) {
    DWC_RETURN_IF_ERROR(meter.Next());
    auto bucket = index.find(ProjectedRef(pt, probe_key));
    if (bucket == index.end()) {
      continue;
    }
    for (const Tuple* bt : bucket->second) {
      out.Insert(ConcatMatch(pt, *bt, build_right, right_extra));
    }
  }
  DWC_RETURN_IF_ERROR(meter.Finish());
  return out;
}

// Filters `in` through `predicate` into `out` (schemas equal).
Status Evaluator::FilterInto(const Relation& in, const Predicate& predicate,
                             Relation* out) {
  const Schema& schema = in.schema();
  RowMeter meter(options_.cancel, *out);
  for (const Tuple& tuple : in.tuples()) {
    DWC_RETURN_IF_ERROR(meter.Next());
    DWC_ASSIGN_OR_RETURN(bool keep, predicate.Eval(schema, tuple));
    if (keep) {
      out->Insert(tuple);
    }
  }
  return meter.Finish();
}

// Projects `in` onto `indices` into `out` (whose schema already matches) in
// one pass: each input tuple's projection probes `out` in place, and a
// tuple is built only for a key `out` does not hold yet. A projection
// usually keeps far fewer distinct rows than it reads, so only the new
// output tuples are charged to the budget.
Status Evaluator::ProjectInto(const Relation& in,
                              const std::vector<size_t>& indices,
                              Relation* out) {
  out->Reserve(in.size());
  RowMeter meter(options_.cancel, *out);
  for (const Tuple& tuple : in.tuples()) {
    DWC_RETURN_IF_ERROR(meter.Next());
    ProjectedRef key(tuple, indices);
    if (!out->Contains(key)) {
      out->Insert(key.ToTuple());
    }
  }
  return meter.Finish();
}

// Set difference left - right, as one membership scan over the left side.
// Schemas must share attribute names; the right side is aligned to the
// left's column order once, up front.
Result<Relation> Evaluator::SubtractInto(const Relation& left,
                                         const Relation& right) {
  if (!left.schema().SameAttrsAs(right.schema())) {
    return Status::InvalidArgument(
        StrCat("difference operands have different schemas: ",
               left.schema().ToString(), " vs ", right.schema().ToString()));
  }
  const Relation* lookup = &right;
  std::optional<Relation> aligned;
  if (!(right.schema() == left.schema())) {
    DWC_ASSIGN_OR_RETURN(Relation realigned, right.AlignTo(left.schema()));
    aligned.emplace(std::move(realigned));
    lookup = &*aligned;
  }
  Relation out(left.schema());
  out.Reserve(left.size());
  RowMeter meter(options_.cancel, out);
  for (const Tuple& tuple : left.tuples()) {
    DWC_RETURN_IF_ERROR(meter.Next());
    if (!lookup->Contains(tuple)) {
      out.Insert(tuple);
    }
  }
  DWC_RETURN_IF_ERROR(meter.Finish());
  return out;
}

Result<std::shared_ptr<const Relation>> Evaluator::Eval(const Expr& expr) {
  DWC_ASSIGN_OR_RETURN(EvalOut out, EvalInternal(expr));
  return std::move(out.rel);
}

Result<Relation> Evaluator::Materialize(const Expr& expr) {
  DWC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> rel, Eval(expr));
  // A copy shares the tuples in O(1), whether the result is a binding, a
  // cache entry or this evaluator's own.
  return Relation(*rel);
}

size_t Evaluator::EstimateSize(const Expr& expr) const {
  switch (expr.kind()) {
    case Expr::Kind::kBase: {
      const Relation* rel = env_->Find(expr.base_name());
      return rel == nullptr ? 0 : rel->size();
    }
    case Expr::Kind::kEmpty:
      return 0;
    case Expr::Kind::kSelect:
      return EstimateSize(*expr.child()) / 3 + 1;
    case Expr::Kind::kProject:
    case Expr::Kind::kRename:
      return EstimateSize(*expr.child());
    case Expr::Kind::kJoin:
      // Joins here are key/foreign-key joins (view definitions) or
      // delta-semijoins (maintenance expressions); in both, output
      // cardinality tracks the *smaller* input. Underestimating is safe:
      // pushdown decisions re-check actual sizes after evaluation.
      return std::min(EstimateSize(*expr.left()),
                      EstimateSize(*expr.right()));
    case Expr::Kind::kUnion:
      return EstimateSize(*expr.left()) + EstimateSize(*expr.right());
    case Expr::Kind::kDifference:
      return EstimateSize(*expr.left());
  }
  return 0;
}

Result<Evaluator::EvalOut> Evaluator::EvalInternal(const Expr& expr) {
  // Fast path: no cache wired (or disabled by budget 0) — exactly the
  // pre-cache pipeline.
  if (cache_ == nullptr || interner_ == nullptr) {
    return EvalNode(expr);
  }
  // Leaves alias bindings or build empties; memoizing them only copies.
  if (expr.kind() == Expr::Kind::kBase || expr.kind() == Expr::Kind::kEmpty) {
    return EvalNode(expr);
  }
  std::optional<ExprInterner::Interned> interned = interner_->Find(&expr);
  if (!interned.has_value()) {
    return EvalNode(expr);  // Not an interned node: nothing to key on.
  }
  const uint64_t id = interned->id;
  const uint64_t cid = interned->cid;
  const std::vector<std::string>* inputs = interned->inputs;
  // Snapshot the (uid, version) identity of every input relation, in the
  // interner's sorted-name order so commutative twins agree. An unresolved
  // name falls back to plain evaluation, which reports the error properly.
  SubplanCache::Snapshot snapshot;
  snapshot.reserve(inputs->size());
  for (const std::string& name : *inputs) {
    const Relation* rel = env_->Find(name);
    if (rel == nullptr) {
      return EvalNode(expr);
    }
    snapshot.emplace_back(rel->uid(), rel->version());
  }

  if (std::optional<SubplanCache::Hit> hit = cache_->Lookup(cid, snapshot)) {
    if (hit->producer_id == id) {
      // Same structural node: the cached result is bit-identical to what
      // evaluation would produce. Stable: the entry outlives this call and
      // its relation accumulates a reusable index cache.
      ++stats_.cache_hits;
      return EvalOut{std::move(hit->rel), /*stable=*/true};
    }
    // Commutative twin (e.g. A ⋈ B recycled for B ⋈ A): identical contents,
    // possibly different column order. Realign to exactly the order plain
    // evaluation of *this* node would emit; if that order cannot be
    // established, fall through and evaluate fresh.
    std::optional<std::vector<std::string>> names = OutputNames(expr, *env_);
    if (names.has_value() && names->size() == hit->rel->schema().size()) {
      const Schema& have = hit->rel->schema();
      bool already_aligned = true;
      std::vector<Attribute> attrs;
      attrs.reserve(names->size());
      bool resolvable = true;
      for (size_t i = 0; i < names->size(); ++i) {
        std::optional<size_t> idx = have.IndexOf((*names)[i]);
        if (!idx.has_value()) {
          resolvable = false;
          break;
        }
        already_aligned = already_aligned && *idx == i;
        attrs.push_back(have.attribute(*idx));
      }
      if (resolvable) {
        if (already_aligned) {
          ++stats_.cache_hits;
          return EvalOut{std::move(hit->rel), /*stable=*/true};
        }
        Result<Schema> target = Schema::Create(std::move(attrs));
        if (target.ok()) {
          Result<Relation> aligned = hit->rel->AlignTo(*target);
          if (aligned.ok()) {
            ++stats_.cache_hits;
            return EvalOut{Own(std::move(aligned).value()), /*stable=*/false};
          }
        }
      }
    }
  }

  ++stats_.cache_misses;
  Result<EvalOut> out = EvalNode(expr);
  if (!out.ok()) {
    return out;
  }
  // Non-leaf results are always owned (never env aliases), so the cache can
  // retain them safely.
  stats_.cache_evictions += cache_->Insert(cid, id, std::move(snapshot),
                                           out->rel, std::move(interned->node));
  return out;
}

Result<Evaluator::EvalOut> Evaluator::EvalNode(const Expr& expr) {
  // Per-operator cancellation point: every node of the plan re-checks the
  // token before doing its work, and the row loops re-check it every
  // kCancelCheckTuples rows, bounding overrun past the deadline.
  DWC_RETURN_IF_ERROR(CheckCancel());
  switch (expr.kind()) {
    case Expr::Kind::kBase: {
      const Relation* rel = env_->Find(expr.base_name());
      if (rel == nullptr) {
        return Status::NotFound(
            StrCat("relation '", expr.base_name(), "' is not bound"));
      }
      if (env_->IsSourceBinding(expr.base_name())) {
        ++stats_.source_reads;
      }
      return EvalOut{Alias(rel), /*stable=*/true};
    }
    case Expr::Kind::kEmpty:
      return EvalOut{Own(Relation(expr.empty_schema())), false};
    case Expr::Kind::kSelect: {
      // Index fast path: an equality-to-constant conjunct over a bound base
      // relation probes the relation's hash index instead of scanning.
      if (options_.enable_pushdown &&
          expr.child()->kind() == Expr::Kind::kBase) {
        const Relation* rel = env_->Find(expr.child()->base_name());
        if (rel != nullptr && !rel->empty()) {
          std::vector<std::string> eq_attrs;
          std::vector<Value> eq_values;
          CollectEqualityConjuncts(*expr.predicate(), rel->schema(),
                                   &eq_attrs, &eq_values);
          if (!eq_attrs.empty()) {
            if (env_->IsSourceBinding(expr.child()->base_name())) {
              ++stats_.source_reads;
            }
            const Relation::Index& index = rel->GetIndex(eq_attrs);
            ++stats_.index_probes;
            Relation out(rel->schema());
            auto bucket = index.find(Tuple(std::move(eq_values)));
            if (bucket != index.end()) {
              for (const Tuple* tuple : bucket->second) {
                DWC_ASSIGN_OR_RETURN(
                    bool keep, expr.predicate()->Eval(rel->schema(), *tuple));
                if (keep) {
                  out.Insert(*tuple);
                }
              }
            }
            DWC_RETURN_IF_ERROR(ChargeTuples(out.size()));
            return EvalOut{Own(std::move(out)), false};
          }
        }
      }
      DWC_ASSIGN_OR_RETURN(EvalOut child, EvalInternal(*expr.child()));
      Relation out(child.rel->schema());
      DWC_RETURN_IF_ERROR(FilterInto(*child.rel, *expr.predicate(), &out));
      return EvalOut{Own(std::move(out)), false};
    }
    case Expr::Kind::kProject: {
      DWC_ASSIGN_OR_RETURN(EvalOut child, EvalInternal(*expr.child()));
      const Schema& in = child.rel->schema();
      DWC_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                           in.IndicesOf(expr.attrs()));
      std::vector<Attribute> attrs;
      attrs.reserve(indices.size());
      for (size_t idx : indices) {
        attrs.push_back(in.attribute(idx));
      }
      DWC_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(attrs)));
      Relation out(std::move(out_schema));
      DWC_RETURN_IF_ERROR(ProjectInto(*child.rel, indices, &out));
      return EvalOut{Own(std::move(out)), false};
    }
    case Expr::Kind::kRename: {
      DWC_ASSIGN_OR_RETURN(EvalOut child, EvalInternal(*expr.child()));
      const Schema& in = child.rel->schema();
      for (const auto& [from, to] : expr.renames()) {
        (void)to;
        if (!in.Contains(from)) {
          return Status::InvalidArgument(
              StrCat("rename source '", from, "' not in ", in.ToString()));
        }
      }
      std::vector<Attribute> attrs;
      attrs.reserve(in.size());
      for (const Attribute& attr : in.attributes()) {
        auto it = expr.renames().find(attr.name);
        attrs.push_back(
            Attribute{it == expr.renames().end() ? attr.name : it->second,
                      attr.type});
      }
      DWC_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(attrs)));
      Relation out(std::move(out_schema));
      out.Reserve(child.rel->size());
      for (const Tuple& tuple : child.rel->tuples()) {
        out.Insert(tuple);
      }
      DWC_RETURN_IF_ERROR(ChargeTuples(out.size()));
      return EvalOut{Own(std::move(out)), false};
    }
    case Expr::Kind::kJoin:
      return EvalJoin(expr);
    case Expr::Kind::kDifference:
      return EvalDifference(expr);
    case Expr::Kind::kUnion: {
      DWC_ASSIGN_OR_RETURN(EvalOut left, EvalInternal(*expr.left()));
      DWC_ASSIGN_OR_RETURN(EvalOut right, EvalInternal(*expr.right()));
      DWC_ASSIGN_OR_RETURN(Relation out, UnionInto(*left.rel, *right.rel));
      DWC_RETURN_IF_ERROR(ChargeTuples(out.size()));
      return EvalOut{Own(std::move(out)), false};
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<Evaluator::EvalOut> Evaluator::EvalDifference(const Expr& expr) {
  ++stats_.differences;
  DWC_ASSIGN_OR_RETURN(EvalOut left, EvalInternal(*expr.left()));

  // If the left side is small relative to the right, restrict the right
  // side to the left side's tuples instead of materializing it: the
  // difference only needs right ∩ left.
  size_t right_estimate = EstimateSize(*expr.right());
  if (options_.enable_pushdown &&
      WorthPushdown(left.rel->size(), right_estimate)) {
    std::optional<std::vector<std::string>> right_names =
        OutputNames(*expr.right(), *env_);
    const Schema& left_schema = left.rel->schema();
    if (right_names.has_value() &&
        right_names->size() == left_schema.size() &&
        left_schema.IndicesOf(*right_names).ok()) {
      // Both sides hold the same attributes and the filter matches columns
      // by name, so the left's own tuples, in the left's column order, are
      // the key set.
      std::vector<std::string> attrs;
      attrs.reserve(left_schema.size());
      for (const Attribute& attr : left_schema.attributes()) {
        attrs.push_back(attr.name);
      }
      KeyFilter filter{std::move(attrs), &left.rel->tuples()};
      ++stats_.pushdown_differences;
      DWC_ASSIGN_OR_RETURN(EvalOut right,
                           EvalWithFilter(*expr.right(), filter));
      DWC_ASSIGN_OR_RETURN(Relation out, SubtractInto(*left.rel, *right.rel));
      return EvalOut{Own(std::move(out)), false};
    }
  }
  DWC_ASSIGN_OR_RETURN(EvalOut right, EvalInternal(*expr.right()));
  DWC_ASSIGN_OR_RETURN(Relation out, SubtractInto(*left.rel, *right.rel));
  return EvalOut{Own(std::move(out)), false};
}

Result<Evaluator::EvalOut> Evaluator::EvalJoin(const Expr& expr) {
  ++stats_.joins;
  // Evaluate the smaller-looking side first; if it is genuinely small,
  // evaluate the other side with the join keys pushed down as a filter.
  size_t left_estimate = EstimateSize(*expr.left());
  size_t right_estimate = EstimateSize(*expr.right());
  bool first_is_left = left_estimate <= right_estimate;
  const Expr& first_expr = first_is_left ? *expr.left() : *expr.right();
  const Expr& second_expr = first_is_left ? *expr.right() : *expr.left();
  size_t second_estimate = first_is_left ? right_estimate : left_estimate;

  DWC_ASSIGN_OR_RETURN(EvalOut first, EvalInternal(first_expr));

  EvalOut second;
  bool have_second = false;
  if (options_.enable_pushdown &&
      WorthPushdown(first.rel->size(), second_estimate)) {
    std::optional<std::vector<std::string>> second_names =
        OutputNames(second_expr, *env_);
    if (second_names.has_value()) {
      std::vector<std::string> common;
      for (const Attribute& attr : first.rel->schema().attributes()) {
        if (std::find(second_names->begin(), second_names->end(),
                      attr.name) != second_names->end()) {
          common.push_back(attr.name);
        }
      }
      if (!common.empty()) {
        DWC_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                             first.rel->schema().IndicesOf(common));
        Relation::TupleSet keys;
        for (const Tuple& tuple : first.rel->tuples()) {
          AddKey(&keys, tuple, key_idx);
        }
        KeyFilter filter{std::move(common), &keys};
        ++stats_.pushdown_joins;
        DWC_ASSIGN_OR_RETURN(second, EvalWithFilter(second_expr, filter));
        have_second = true;
      }
    }
  }
  if (!have_second) {
    DWC_ASSIGN_OR_RETURN(second, EvalInternal(second_expr));
  }

  const EvalOut& left = first_is_left ? first : second;
  const EvalOut& right = first_is_left ? second : first;
  // Index the stable side when exactly one side is stable (its index cache
  // persists across refreshes); otherwise HashJoin picks the larger side.
  if (left.stable != right.stable) {
    if (right.stable) {
      DWC_ASSIGN_OR_RETURN(Relation out,
                           HashJoin(*left.rel, *right.rel,
                                    /*prefer_build_right=*/true));
      return EvalOut{Own(std::move(out)), false};
    }
    // Left side is the stable one: join with swapped arguments so the index
    // lands on it, then realign the columns to the canonical
    // left-then-right-extra order.
    DWC_ASSIGN_OR_RETURN(Relation out,
                         HashJoin(*right.rel, *left.rel,
                                  /*prefer_build_right=*/true));
    std::vector<Attribute> out_attrs = left.rel->schema().attributes();
    for (const Attribute& attr : right.rel->schema().attributes()) {
      if (!left.rel->schema().Contains(attr.name)) {
        out_attrs.push_back(attr);
      }
    }
    DWC_ASSIGN_OR_RETURN(Schema target, Schema::Create(std::move(out_attrs)));
    DWC_ASSIGN_OR_RETURN(out, out.AlignTo(target));
    return EvalOut{Own(std::move(out)), false};
  }
  DWC_ASSIGN_OR_RETURN(Relation out, HashJoin(*left.rel, *right.rel,
                                              /*prefer_build_right=*/false));
  return EvalOut{Own(std::move(out)), false};
}

Result<Evaluator::EvalOut> Evaluator::EvalWithFilter(const Expr& expr,
                                                     const KeyFilter& filter) {
  DWC_RETURN_IF_ERROR(CheckCancel());
  switch (expr.kind()) {
    case Expr::Kind::kBase: {
      const Relation* rel = env_->Find(expr.base_name());
      if (rel == nullptr) {
        return Status::NotFound(
            StrCat("relation '", expr.base_name(), "' is not bound"));
      }
      if (env_->IsSourceBinding(expr.base_name())) {
        ++stats_.source_reads;
      }
      // Probe the (cached) index with every key.
      const Relation::Index& index = rel->GetIndex(filter.attrs);
      Relation out(rel->schema());
      stats_.index_probes += filter.keys->size();
      for (const Tuple& key : *filter.keys) {
        auto bucket = index.find(key);
        if (bucket == index.end()) {
          continue;
        }
        for (const Tuple* tuple : bucket->second) {
          out.Insert(*tuple);
        }
      }
      DWC_RETURN_IF_ERROR(ChargeTuples(out.size()));
      return EvalOut{Own(std::move(out)), false};
    }
    case Expr::Kind::kEmpty:
      return EvalOut{Own(Relation(expr.empty_schema())), false};
    case Expr::Kind::kSelect: {
      DWC_ASSIGN_OR_RETURN(EvalOut child,
                           EvalWithFilter(*expr.child(), filter));
      Relation out(child.rel->schema());
      DWC_RETURN_IF_ERROR(FilterInto(*child.rel, *expr.predicate(), &out));
      return EvalOut{Own(std::move(out)), false};
    }
    case Expr::Kind::kProject: {
      // filter.attrs ⊆ expr.attrs() ⊆ child attrs: push straight through.
      DWC_ASSIGN_OR_RETURN(EvalOut child,
                           EvalWithFilter(*expr.child(), filter));
      const Schema& in = child.rel->schema();
      DWC_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                           in.IndicesOf(expr.attrs()));
      std::vector<Attribute> attrs;
      for (size_t idx : indices) {
        attrs.push_back(in.attribute(idx));
      }
      DWC_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(attrs)));
      Relation out(std::move(out_schema));
      DWC_RETURN_IF_ERROR(ProjectInto(*child.rel, indices, &out));
      return EvalOut{Own(std::move(out)), false};
    }
    case Expr::Kind::kRename: {
      // Map filter attribute names back through the rename, recurse, then
      // re-apply the rename.
      std::map<std::string, std::string> reverse;
      for (const auto& [from, to] : expr.renames()) {
        reverse[to] = from;
      }
      KeyFilter inner{filter.attrs, filter.keys};
      for (std::string& name : inner.attrs) {
        auto it = reverse.find(name);
        if (it != reverse.end()) {
          name = it->second;
        }
      }
      DWC_ASSIGN_OR_RETURN(EvalOut child,
                           EvalWithFilter(*expr.child(), inner));
      const Schema& in = child.rel->schema();
      std::vector<Attribute> attrs;
      for (const Attribute& attr : in.attributes()) {
        auto it = expr.renames().find(attr.name);
        attrs.push_back(
            Attribute{it == expr.renames().end() ? attr.name : it->second,
                      attr.type});
      }
      DWC_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(attrs)));
      Relation out(std::move(out_schema));
      out.Reserve(child.rel->size());
      for (const Tuple& tuple : child.rel->tuples()) {
        out.Insert(tuple);
      }
      DWC_RETURN_IF_ERROR(ChargeTuples(out.size()));
      return EvalOut{Own(std::move(out)), false};
    }
    case Expr::Kind::kUnion: {
      DWC_ASSIGN_OR_RETURN(EvalOut left, EvalWithFilter(*expr.left(), filter));
      DWC_ASSIGN_OR_RETURN(EvalOut right,
                           EvalWithFilter(*expr.right(), filter));
      DWC_ASSIGN_OR_RETURN(Relation out, UnionInto(*left.rel, *right.rel));
      DWC_RETURN_IF_ERROR(ChargeTuples(out.size()));
      return EvalOut{Own(std::move(out)), false};
    }
    case Expr::Kind::kDifference: {
      DWC_ASSIGN_OR_RETURN(EvalOut left, EvalWithFilter(*expr.left(), filter));
      DWC_ASSIGN_OR_RETURN(EvalOut right,
                           EvalWithFilter(*expr.right(), filter));
      DWC_ASSIGN_OR_RETURN(Relation out, SubtractInto(*left.rel, *right.rel));
      return EvalOut{Own(std::move(out)), false};
    }
    case Expr::Kind::kJoin: {
      // Push the filter attributes each child exposes into that child (an
      // over-approximation per child), join the small results, then apply
      // the exact filter.
      auto eval_child = [&](const Expr& child) -> Result<EvalOut> {
        std::optional<std::vector<std::string>> names =
            OutputNames(child, *env_);
        if (!names.has_value()) {
          return EvalInternal(child);  // Let plain evaluation report errors.
        }
        std::vector<std::string> sub_attrs;
        std::vector<size_t> positions;
        for (size_t i = 0; i < filter.attrs.size(); ++i) {
          if (std::find(names->begin(), names->end(), filter.attrs[i]) !=
              names->end()) {
            sub_attrs.push_back(filter.attrs[i]);
            positions.push_back(i);
          }
        }
        if (sub_attrs.empty()) {
          return EvalInternal(child);
        }
        if (sub_attrs.size() == filter.attrs.size()) {
          return EvalWithFilter(child, filter);
        }
        Relation::TupleSet sub_keys;
        for (const Tuple& key : *filter.keys) {
          AddKey(&sub_keys, key, positions);
        }
        KeyFilter sub_filter{std::move(sub_attrs), &sub_keys};
        return EvalWithFilter(child, sub_filter);
      };
      DWC_ASSIGN_OR_RETURN(EvalOut left, eval_child(*expr.left()));
      DWC_ASSIGN_OR_RETURN(EvalOut right, eval_child(*expr.right()));
      DWC_ASSIGN_OR_RETURN(Relation joined,
                           HashJoin(*left.rel, *right.rel,
                                    /*prefer_build_right=*/false));
      // Exact filter on the join output.
      DWC_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                           joined.schema().IndicesOf(filter.attrs));
      Relation out(joined.schema());
      for (const Tuple& tuple : joined.tuples()) {
        if (filter.keys->find(ProjectedRef(tuple, key_idx)) !=
            filter.keys->end()) {
          out.Insert(tuple);
        }
      }
      DWC_RETURN_IF_ERROR(ChargeTuples(out.size()));
      return EvalOut{Own(std::move(out)), false};
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<Relation> EvalExpr(const Expr& expr, const Environment& env) {
  Evaluator evaluator(&env);
  return evaluator.Materialize(expr);
}

}  // namespace dwc
