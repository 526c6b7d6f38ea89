#include "algebra/evaluator.h"

#include <algorithm>
#include <cstdint>
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

std::vector<std::string> AttrNames(const Schema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.size());
  for (const Attribute& attr : schema.attributes()) {
    names.push_back(attr.name);
  }
  return names;
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
      return AttrNames(rel->schema());
    }
    case Expr::Kind::kEmpty:
      return AttrNames(expr.empty_schema());
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

// Pushdown thresholds, calibrated by B7's sweeps (EXPERIMENTS.md): a
// 64-key batch against 8 000 rows takes ~130 µs when either threshold
// admits pushdown and ~900 µs when neither does.
constexpr size_t kPushdownMaxKeys = 8;
constexpr size_t kPushdownSelectivityFactor = 8;

// True when an already-evaluated operand of `actual` tuples is small
// enough relative to the other operand's `estimate` that index probing
// beats a scan.
bool WorthPushdown(size_t actual, size_t estimate) {
  return actual <= kPushdownMaxKeys ||
         actual * kPushdownSelectivityFactor < estimate;
}

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

// The one join kernel: the natural join of `operands`, with operand 0's
// columns first and each later operand's new ones after it, in operand
// order. Each tuple of operands[probe] walks the others' cached indexes in
// turn, each keyed on the attributes it shares with the operands walked
// before it, and only whole matches become tuples: a chain builds no
// intermediate relation. A step that shares no attribute (a cross product)
// visits every tuple of its operand; a two-way cross product probes with
// operand 0, so its rows go in left-major.
Result<Relation> Evaluator::JoinChain(
    const std::vector<const Relation*>& operands, size_t probe) {
  // Output column c comes from column source_col[c] of operand
  // source_op[c]: the first operand that holds the attribute.
  std::vector<Attribute> out_attrs;
  std::vector<size_t> source_op;
  std::vector<size_t> source_col;
  for (size_t op = 0; op < operands.size(); ++op) {
    const Schema& schema = operands[op]->schema();
    for (size_t i = 0; i < schema.size(); ++i) {
      const Attribute& attr = schema.attribute(i);
      auto seen = std::find_if(
          out_attrs.begin(), out_attrs.end(),
          [&](const Attribute& have) { return have.name == attr.name; });
      if (seen == out_attrs.end()) {
        out_attrs.push_back(attr);
        source_op.push_back(op);
        source_col.push_back(i);
      } else if (seen->type != attr.type) {
        return Status::InvalidArgument(
            StrCat("join attribute '", attr.name, "' has conflicting types"));
      }
    }
  }
  DWC_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(out_attrs));
  Relation out(std::move(out_schema));

  // A two-way cross product probes with operand 0.
  if (operands.size() == 2 &&
      operands[0]->schema().CommonWith(operands[1]->schema()).empty()) {
    probe = 0;
  }
  // One step per operand other than the probe, in operand order. A step's
  // key is the attributes its operand shares with the operands already
  // walked, in output column order; each key value is read from the first
  // walked operand that holds it.
  struct Step {
    size_t op;
    const Relation::Index* index = nullptr;  // Null for a cross product.
    std::vector<std::pair<size_t, size_t>> key;  // (operand, column).
  };
  std::vector<Step> steps;
  std::vector<size_t> walked = {probe};
  for (size_t op = 0; op < operands.size(); ++op) {
    if (op == probe) {
      continue;
    }
    Step step;
    step.op = op;
    for (const Attribute& attr : out_attrs) {
      if (!operands[op]->schema().Contains(attr.name)) {
        continue;
      }
      for (size_t from : walked) {
        std::optional<size_t> col = operands[from]->schema().IndexOf(attr.name);
        if (col.has_value()) {
          step.key.emplace_back(from, *col);
          break;
        }
      }
    }
    walked.push_back(op);
    steps.push_back(std::move(step));
  }
  bool cross = false;
  size_t reserve = operands[probe]->size();
  for (Step& step : steps) {
    if (step.key.empty()) {
      cross = true;
      const size_t n = operands[step.op]->size();
      reserve = n != 0 && reserve > SIZE_MAX / n ? SIZE_MAX : reserve * n;
      continue;
    }
    std::vector<std::string> attrs;
    attrs.reserve(step.key.size());
    for (const auto& [from, col] : step.key) {
      attrs.push_back(operands[from]->schema().attribute(col).name);
    }
    step.index = &operands[step.op]->GetIndex(attrs);
  }
  // Key/foreign-key joins emit about one output row per probe row. A cross
  // product reserves no more than the remaining tuple budget, so that a
  // governed query fails mid-product instead of after |L|x|R| work.
  if (cross && options_.cancel != nullptr) {
    reserve = std::min(reserve, options_.cancel->RemainingBudget());
  }
  out.Reserve(reserve);

  RowMeter meter(options_.cancel, out);
  std::vector<const Tuple*> row(operands.size(), nullptr);
  std::vector<std::vector<const Value*>> keys(steps.size());
  for (size_t s = 0; s < steps.size(); ++s) {
    keys[s].resize(steps[s].key.size());
  }
  // Depth-first over the steps: `row` holds the tuples matched so far.
  auto walk = [&](auto& self, size_t s) -> Status {
    if (s == steps.size()) {
      if (cross) {
        DWC_RETURN_IF_ERROR(meter.Next());
      }
      std::vector<Value> values;
      values.reserve(out_attrs.size());
      for (size_t c = 0; c < out_attrs.size(); ++c) {
        values.push_back(row[source_op[c]]->at(source_col[c]));
      }
      out.Insert(Tuple(std::move(values)));
      return Status::Ok();
    }
    const Step& step = steps[s];
    if (step.index == nullptr) {
      for (const Tuple& tuple : operands[step.op]->tuples()) {
        row[step.op] = &tuple;
        DWC_RETURN_IF_ERROR(self(self, s + 1));
      }
      return Status::Ok();
    }
    for (size_t k = 0; k < step.key.size(); ++k) {
      keys[s][k] = &row[step.key[k].first]->at(step.key[k].second);
    }
    auto bucket = step.index->find(ValuesRef(keys[s]));
    if (bucket == step.index->end()) {
      return Status::Ok();
    }
    for (const Tuple* tuple : bucket->second) {
      row[step.op] = tuple;
      DWC_RETURN_IF_ERROR(self(self, s + 1));
    }
    return Status::Ok();
  };
  for (const Tuple& tuple : operands[probe]->tuples()) {
    DWC_RETURN_IF_ERROR(meter.Next());
    row[probe] = &tuple;
    DWC_RETURN_IF_ERROR(walk(walk, 0));
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

// Probes `rel`'s cached index on `filter.attrs` with every key, keeping
// the matches that satisfy `predicate` (all of them when it is null).
Result<Relation> Evaluator::ProbeBase(const Relation& rel,
                                      const KeyFilter& filter,
                                      const Predicate* predicate) {
  const Relation::Index& index = rel.GetIndex(filter.attrs);
  stats_.index_probes += filter.keys->size();
  Relation out(rel.schema());
  for (const Tuple& key : *filter.keys) {
    auto bucket = index.find(key);
    if (bucket == index.end()) {
      continue;
    }
    for (const Tuple* tuple : bucket->second) {
      if (predicate != nullptr) {
        DWC_ASSIGN_OR_RETURN(bool keep, predicate->Eval(rel.schema(), *tuple));
        if (!keep) {
          continue;
        }
      }
      out.Insert(*tuple);
    }
  }
  DWC_RETURN_IF_ERROR(ChargeTuples(out.size()));
  return out;
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

Result<Evaluator::EvalOut> Evaluator::EvalInternal(const Expr& expr,
                                                   const KeyFilter* filter) {
  // A filtered result is a subset, not the subplan's value, so it is never
  // looked up or stored. With no cache wired (or disabled by budget 0) this
  // is exactly the pre-cache pipeline.
  if (filter != nullptr || cache_ == nullptr || interner_ == nullptr) {
    return EvalNode(expr, filter);
  }
  // Leaves alias bindings or build empties; memoizing them only copies.
  if (expr.kind() == Expr::Kind::kBase || expr.kind() == Expr::Kind::kEmpty) {
    return EvalNode(expr, nullptr);
  }
  std::optional<ExprInterner::Interned> interned = interner_->Find(&expr);
  if (!interned.has_value()) {
    return EvalNode(expr, nullptr);  // Not an interned node: nothing to key on.
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
      return EvalNode(expr, nullptr);
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
  Result<EvalOut> out = EvalNode(expr, nullptr);
  if (!out.ok()) {
    return out;
  }
  // Non-leaf results are always owned (never env aliases), so the cache can
  // retain them safely.
  stats_.cache_evictions += cache_->Insert(cid, id, std::move(snapshot),
                                           out->rel, std::move(interned->node));
  return out;
}

// The one operator dispatch. With a `filter` (pushed down from a join or a
// difference above) every operator returns exactly its tuples that match
// the filter: σ, π and ∪ pass it to their children, ρ maps its names back
// through the rename first, and a base relation probes its cached index
// with every key instead of being scanned.
Result<Evaluator::EvalOut> Evaluator::EvalNode(const Expr& expr,
                                               const KeyFilter* filter) {
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
      if (filter == nullptr) {
        return EvalOut{Alias(rel), /*stable=*/true};
      }
      DWC_ASSIGN_OR_RETURN(Relation out, ProbeBase(*rel, *filter, nullptr));
      return EvalOut{Own(std::move(out)), false};
    }
    case Expr::Kind::kEmpty:
      return EvalOut{Own(Relation(expr.empty_schema())), false};
    case Expr::Kind::kSelect: {
      // Index fast path: the equality-to-constant conjuncts over a bound
      // base relation make a one-key filter, and the probe tests the full
      // predicate on each match.
      const Expr& child_expr = *expr.child();
      if (filter == nullptr && options_.enable_pushdown &&
          child_expr.kind() == Expr::Kind::kBase) {
        const Relation* rel = env_->Find(child_expr.base_name());
        if (rel != nullptr && !rel->empty()) {
          KeyFilter eq;
          std::vector<Value> eq_values;
          CollectEqualityConjuncts(*expr.predicate(), rel->schema(), &eq.attrs,
                                   &eq_values);
          if (!eq.attrs.empty()) {
            if (env_->IsSourceBinding(child_expr.base_name())) {
              ++stats_.source_reads;
            }
            Relation::TupleSet keys;
            keys.emplace(std::move(eq_values));
            eq.keys = &keys;
            DWC_ASSIGN_OR_RETURN(Relation out,
                                 ProbeBase(*rel, eq, expr.predicate().get()));
            return EvalOut{Own(std::move(out)), false};
          }
        }
      }
      DWC_ASSIGN_OR_RETURN(EvalOut child, EvalInternal(child_expr, filter));
      Relation out(child.rel->schema());
      DWC_RETURN_IF_ERROR(FilterInto(*child.rel, *expr.predicate(), &out));
      return EvalOut{Own(std::move(out)), false};
    }
    case Expr::Kind::kProject: {
      // A filter's attributes are among the projected ones, so it passes
      // straight through.
      DWC_ASSIGN_OR_RETURN(EvalOut child, EvalInternal(*expr.child(), filter));
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
      // A filter names the renamed columns: map them back to the child's.
      std::optional<KeyFilter> inner;
      if (filter != nullptr) {
        std::map<std::string, std::string> reverse;
        for (const auto& [from, to] : expr.renames()) {
          reverse[to] = from;
        }
        inner = *filter;
        for (std::string& name : inner->attrs) {
          auto it = reverse.find(name);
          if (it != reverse.end()) {
            name = it->second;
          }
        }
      }
      DWC_ASSIGN_OR_RETURN(
          EvalOut child,
          EvalInternal(*expr.child(), inner.has_value() ? &*inner : nullptr));
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
      return EvalJoin(expr, filter);
    case Expr::Kind::kDifference:
      return EvalDifference(expr, filter);
    case Expr::Kind::kUnion: {
      DWC_ASSIGN_OR_RETURN(EvalOut left, EvalInternal(*expr.left(), filter));
      DWC_ASSIGN_OR_RETURN(EvalOut right, EvalInternal(*expr.right(), filter));
      DWC_ASSIGN_OR_RETURN(Relation out, UnionInto(*left.rel, *right.rel));
      DWC_RETURN_IF_ERROR(ChargeTuples(out.size()));
      return EvalOut{Own(std::move(out)), false};
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<Evaluator::EvalOut> Evaluator::EvalDifference(const Expr& expr,
                                                     const KeyFilter* filter) {
  // A pushed filter restricts both sides alike. Only a difference evaluated
  // whole may push a filter of its own into the right side.
  ++stats_.differences;
  DWC_ASSIGN_OR_RETURN(EvalOut left, EvalInternal(*expr.left(), filter));

  // If the left side is small relative to the right, restrict the right
  // side to the left side's tuples instead of materializing it: the
  // difference only needs right ∩ left.
  std::optional<KeyFilter> pushed;
  if (filter == nullptr && options_.enable_pushdown &&
      WorthPushdown(left.rel->size(), EstimateSize(*expr.right()))) {
    std::optional<std::vector<std::string>> right_names =
        OutputNames(*expr.right(), *env_);
    const Schema& left_schema = left.rel->schema();
    if (right_names.has_value() &&
        right_names->size() == left_schema.size() &&
        left_schema.IndicesOf(*right_names).ok()) {
      // Both sides hold the same attributes and the filter matches columns
      // by name, so the left's own tuples, in the left's column order, are
      // the key set.
      pushed = KeyFilter{AttrNames(left_schema), &left.rel->tuples()};
      filter = &*pushed;
      ++stats_.pushdown_differences;
    }
  }
  DWC_ASSIGN_OR_RETURN(EvalOut right, EvalInternal(*expr.right(), filter));
  DWC_ASSIGN_OR_RETURN(Relation out, SubtractInto(*left.rel, *right.rel));
  return EvalOut{Own(std::move(out)), false};
}

Result<Evaluator::EvalOut> Evaluator::EvalJoin(const Expr& expr,
                                               const KeyFilter* filter) {
  ++stats_.joins;
  if (filter != nullptr) {
    // Push the filter attributes each child exposes into that child (an
    // over-approximation per child), join the small results, then apply
    // the exact filter.
    auto eval_child = [&](const Expr& child) -> Result<EvalOut> {
      std::optional<std::vector<std::string>> names =
          OutputNames(child, *env_);
      if (!names.has_value()) {
        return EvalInternal(child);  // Let plain evaluation report errors.
      }
      KeyFilter sub;
      std::vector<size_t> positions;
      for (size_t i = 0; i < filter->attrs.size(); ++i) {
        if (std::find(names->begin(), names->end(), filter->attrs[i]) !=
            names->end()) {
          sub.attrs.push_back(filter->attrs[i]);
          positions.push_back(i);
        }
      }
      if (sub.attrs.empty()) {
        return EvalInternal(child);
      }
      if (sub.attrs.size() == filter->attrs.size()) {
        return EvalInternal(child, filter);
      }
      Relation::TupleSet sub_keys;
      for (const Tuple& key : *filter->keys) {
        AddKey(&sub_keys, key, positions);
      }
      sub.keys = &sub_keys;
      return EvalInternal(child, &sub);
    };
    DWC_ASSIGN_OR_RETURN(EvalOut left, eval_child(*expr.left()));
    DWC_ASSIGN_OR_RETURN(EvalOut right, eval_child(*expr.right()));
    // Index the larger side.
    const size_t probe = right.rel->size() >= left.rel->size() ? 0 : 1;
    DWC_ASSIGN_OR_RETURN(Relation joined,
                         JoinChain({left.rel.get(), right.rel.get()}, probe));
    DWC_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                         joined.schema().IndicesOf(filter->attrs));
    Relation out(joined.schema());
    for (const Tuple& tuple : joined.tuples()) {
      if (filter->keys->find(ProjectedRef(tuple, key_idx)) !=
          filter->keys->end()) {
        out.Insert(tuple);
      }
    }
    DWC_RETURN_IF_ERROR(ChargeTuples(out.size()));
    return EvalOut{Own(std::move(out)), false};
  }

  if (!options_.enable_pushdown && expr.left()->kind() == Expr::Kind::kJoin) {
    // A left-deep chain evaluated whole, as Load does: one probe of the
    // leftmost operand through the others' indexes, with no intermediate
    // relation. Its inner joins are counted but never cached.
    std::vector<const Expr*> spine;
    const Expr* node = &expr;
    for (; node->kind() == Expr::Kind::kJoin; node = node->left().get()) {
      spine.push_back(node->right().get());
    }
    spine.push_back(node);
    std::reverse(spine.begin(), spine.end());
    stats_.joins += spine.size() - 2;
    std::vector<EvalOut> evaluated;
    std::vector<const Relation*> operands;
    evaluated.reserve(spine.size());
    operands.reserve(spine.size());
    for (const Expr* operand : spine) {
      DWC_ASSIGN_OR_RETURN(EvalOut out, EvalInternal(*operand));
      operands.push_back(out.rel.get());
      evaluated.push_back(std::move(out));
    }
    DWC_ASSIGN_OR_RETURN(Relation out, JoinChain(operands, 0));
    return EvalOut{Own(std::move(out)), false};
  }

  // Evaluate the smaller-looking side first; if it is genuinely small,
  // evaluate the other side with the join keys pushed down as a filter.
  size_t left_estimate = EstimateSize(*expr.left());
  size_t right_estimate = EstimateSize(*expr.right());
  bool first_is_left = left_estimate <= right_estimate;
  const Expr& first_expr = first_is_left ? *expr.left() : *expr.right();
  const Expr& second_expr = first_is_left ? *expr.right() : *expr.left();
  size_t second_estimate = first_is_left ? right_estimate : left_estimate;

  DWC_ASSIGN_OR_RETURN(EvalOut first, EvalInternal(first_expr));

  KeyFilter pushed;
  Relation::TupleSet keys;
  if (options_.enable_pushdown &&
      WorthPushdown(first.rel->size(), second_estimate)) {
    std::optional<std::vector<std::string>> second_names =
        OutputNames(second_expr, *env_);
    if (second_names.has_value()) {
      for (const Attribute& attr : first.rel->schema().attributes()) {
        if (std::find(second_names->begin(), second_names->end(),
                      attr.name) != second_names->end()) {
          pushed.attrs.push_back(attr.name);
        }
      }
      if (!pushed.attrs.empty()) {
        DWC_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                             first.rel->schema().IndicesOf(pushed.attrs));
        for (const Tuple& tuple : first.rel->tuples()) {
          AddKey(&keys, tuple, key_idx);
        }
        pushed.keys = &keys;
        ++stats_.pushdown_joins;
      }
    }
  }
  DWC_ASSIGN_OR_RETURN(
      EvalOut second,
      EvalInternal(second_expr, pushed.keys != nullptr ? &pushed : nullptr));

  const EvalOut& left = first_is_left ? first : second;
  const EvalOut& right = first_is_left ? second : first;
  // Index the stable side when exactly one side is stable (its index cache
  // persists across refreshes); otherwise the larger side.
  const bool build_right = left.stable != right.stable
                               ? right.stable
                               : right.rel->size() >= left.rel->size();
  DWC_ASSIGN_OR_RETURN(
      Relation out,
      JoinChain({left.rel.get(), right.rel.get()}, build_right ? 0 : 1));
  return EvalOut{Own(std::move(out)), false};
}

Result<Relation> EvalExpr(const Expr& expr, const Environment& env) {
  Evaluator evaluator(&env);
  return evaluator.Materialize(expr);
}

}  // namespace dwc
