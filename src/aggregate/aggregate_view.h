#ifndef DWC_AGGREGATE_AGGREGATE_VIEW_H_
#define DWC_AGGREGATE_AGGREGATE_VIEW_H_

#include <unordered_map>
#include <memory>
#include <string>
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
// of its source expression (set semantics):
//   * COUNT and SUM fold insertions and deletions directly;
//   * MIN/MAX fold insertions; a deletion of the current extremum marks the
//     group dirty and the group is re-aggregated from the source (evaluated
//     against the *new* warehouse state — the classic summary-delta
//     treatment of non-self-maintainable aggregates).
// Groups whose support count reaches zero disappear.
class AggregateView {
 public:
  // Validates the definition against `resolver` (which must know all
  // relation names `source` uses) and derives the output schema:
  // group-by columns first, then one column per aggregate.
  static Result<AggregateView> Create(AggregateViewDef def,
                                      const SchemaResolver& resolver);

  // The materialized table lives behind a shared slot so the warehouse's
  // epoch snapshots can keep an old version alive after the view moves on
  // (warehouse/epoch.h). Copying a view deep-copies the table — a copy
  // never aliases storage with the original, which is what makes
  // copy-then-swap folding safe.
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

  // Folds an exact source delta. `plus`/`minus` carry the source schema
  // (any column order). `new_env` must reflect the source's *post-update*
  // state; it is consulted only to re-aggregate dirty MIN/MAX groups.
  Status ApplyDelta(const Relation& plus, const Relation& minus,
                    const Environment& new_env);

 private:
  struct GroupState {
    int64_t count = 0;          // Support: source tuples in the group.
    std::vector<Value> accums;  // One per aggregate spec.
    bool dirty = false;         // MIN/MAX needs re-aggregation.
  };

  AggregateView() : materialized_(std::make_shared<Relation>()) {}

  void CopyFrom(const AggregateView& other);

  Status FoldInsert(const Tuple& tuple, const Schema& schema);
  Status FoldDelete(const Tuple& tuple, const Schema& schema);
  // Recomputes one group from the source (new state).
  Status RecomputeGroup(const Tuple& group, const Environment& env);
  // Writes the materialized row of `group` (erasing any stale row first).
  void EmitRow(const Tuple& group);
  // Positions of group-by / aggregate attrs in `schema` (cached per call
  // site since plus/minus may arrive in any column order).
  Result<std::vector<size_t>> GroupIndices(const Schema& schema) const;
  Result<std::vector<size_t>> AggIndices(const Schema& schema) const;

  AggregateViewDef def_;
  Schema source_schema_;
  std::shared_ptr<Relation> materialized_;
  // Probed with ProjectedRef: folding a tuple builds its group key only
  // for a new group.
  std::unordered_map<Tuple, GroupState, TupleHash, TupleEq> groups_;
};

}  // namespace dwc

#endif  // DWC_AGGREGATE_AGGREGATE_VIEW_H_
