#ifndef DWC_AGGREGATE_AGGREGATE_VIEW_H_
#define DWC_AGGREGATE_AGGREGATE_VIEW_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/environment.h"
#include "algebra/expr.h"
#include "algebra/schema_inference.h"
#include "relational/relation.h"
#include "util/result.h"

namespace dwc {

// Aggregate functions for warehouse summary tables. The paper's Section 5
// notes that OLAP runs aggregate views over fact tables and that those are
// maintained by dedicated algorithms (Mumick et al.) on top of the
// PSJ-maintained facts — this module is that layer.
enum class AggFunc {
  kCount,  // COUNT(*) — no attribute.
  kSum,
  kMin,
  kMax,
};

const char* AggFuncName(AggFunc func);

struct AggSpec {
  AggFunc func = AggFunc::kCount;
  // Aggregated attribute; empty for kCount.
  std::string attr;
  // Output column name.
  std::string out_name;
};

// GROUP BY `group_by` over `source` (an expression over warehouse relation
// names — typically a single fact view), computing `aggregates`.
struct AggregateViewDef {
  std::string name;
  ExprRef source;
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggregates;

  std::string ToString() const;
};

// A materialized summary table maintained incrementally from exact deltas
// of its source expression (set semantics). COUNT and SUM fold insertions
// and deletions directly. MIN/MAX stay exact through value counts: each
// MIN/MAX spec keeps, per group, how many source tuples carry each non-NULL
// value, and the row reads the least (MIN) or greatest (MAX) value still
// counted — so a deleted extremum never sends the fold back to the source.
// The price is one map entry per distinct (group, value) per MIN/MAX spec.
// NULLs are not counted: MIN/MAX over a group holding only NULLs is NULL.
// Groups whose support count reaches zero disappear.
class AggregateView {
  // One touched group's fold: its new support count and SUMs, and per
  // MIN/MAX spec the net change of each value's count.
  struct GroupChange {
    int64_t count = 0;
    std::vector<Value> sums;
    std::vector<std::map<Value, int64_t>> value_changes;
  };
  using GroupChanges =
      std::unordered_map<Tuple, GroupChange, TupleHash, TupleEq>;

 public:
  // Validates the definition against `resolver` (which must know all
  // relation names `source` uses) and derives the output schema:
  // group-by columns first, then one column per aggregate.
  static Result<AggregateView> Create(AggregateViewDef def,
                                      const SchemaResolver& resolver);

  // The materialized table lives behind a shared slot so the warehouse's
  // epoch snapshots can keep an old version alive after the view moves on
  // (warehouse/epoch.h). Copying a view deep-copies the table — a copy
  // never aliases storage with the original.
  AggregateView(const AggregateView& other) { CopyFrom(other); }
  AggregateView& operator=(const AggregateView& other) {
    if (this != &other) {
      CopyFrom(other);
    }
    return *this;
  }
  AggregateView(AggregateView&&) noexcept = default;
  AggregateView& operator=(AggregateView&&) noexcept = default;

  const AggregateViewDef& def() const { return def_; }
  const Schema& schema() const { return materialized_->schema(); }
  const Relation& materialized() const { return *materialized_; }
  std::shared_ptr<const Relation> shared_materialized() const {
    return materialized_;
  }

  // Recomputes from scratch: evaluates `source` on `env` and folds it.
  // Installs a fresh storage slot, leaving any snapshot-held old version
  // untouched.
  Status Initialize(const Environment& env);

  // One delta folded but not yet installed (see Fold).
  class Folded {
   private:
    friend class AggregateView;
    GroupChanges groups;
    std::shared_ptr<Relation> table;
  };

  // Folds an exact source delta without touching the view: `plus`/`minus`
  // carry the source schema (any column order). Costs O(|delta| log) plus
  // one copy of the summary table, which the result carries with every
  // touched row rewritten. Fails — leaving the view as it was — on a SUM
  // over NULL (InvalidArgument) or on a delete of a group or MIN/MAX value
  // the view never folded (Internal).
  Result<Folded> Fold(const Relation& plus, const Relation& minus) const;
  // Installs a fold of this view's current state: swaps in the new table
  // (snapshots keep the old one) and merges the touched groups. Infallible.
  void Install(Folded folded);
  // Fold, then Install.
  Status ApplyDelta(const Relation& plus, const Relation& minus);

 private:
  struct GroupState {
    int64_t count = 0;  // Support: source tuples in the group.
    // Per spec; only SUM specs' entries are used.
    std::vector<Value> sums;
    // Per spec; only MIN/MAX specs' maps are used: count of each value.
    std::vector<std::map<Value, int64_t>> values;
  };

  AggregateView() : materialized_(std::make_shared<Relation>()) {}

  void CopyFrom(const AggregateView& other);

  // Folds every tuple of `delta` (+1 per tuple for plus, -1 for minus) into
  // `changes`, starting each newly touched group from its current state.
  Status Accumulate(const Relation& delta, int sign,
                    GroupChanges* changes) const;
  // The materialized row of `group`: its values, then one per spec.
  // `changes` (may be null) are added to the MIN/MAX value counts first.
  Tuple MakeRow(const Tuple& group, int64_t count,
                const std::vector<Value>& sums,
                const std::vector<std::map<Value, int64_t>>& values,
                const std::vector<std::map<Value, int64_t>>* changes) const;

  AggregateViewDef def_;
  Schema source_schema_;
  std::shared_ptr<Relation> materialized_;
  // Probed with ProjectedRef: folding a tuple builds its group key only
  // for a new group.
  std::unordered_map<Tuple, GroupState, TupleHash, TupleEq> groups_;
};

}  // namespace dwc

#endif  // DWC_AGGREGATE_AGGREGATE_VIEW_H_
