#ifndef DWC_ALGEBRA_EVALUATOR_H_
#define DWC_ALGEBRA_EVALUATOR_H_

#include <memory>

#include "algebra/environment.h"
#include "algebra/expr.h"
#include "algebra/interner.h"
#include "algebra/subplan_cache.h"
#include "relational/relation.h"
#include "runtime/cancel.h"
#include "util/result.h"

namespace dwc {

// Evaluates relational-algebra expressions against an Environment.
//
// Name references resolve to bound relations without copying, so repeatedly
// evaluating small delta expressions against large materialized views is
// cheap. Natural joins are hash joins; when one operand is a bound
// (persistent) relation, the hash index is built — and cached — on that side
// and the computed side streams through it, which gives delta-maintenance
// expressions their O(|delta|) behaviour after the first refresh.
struct EvaluatorOptions {
  // Disables the semijoin/difference pushdown fast paths (plain bottom-up
  // evaluation). Warehouse::MaterializeFrom turns it off: it evaluates
  // each view once over full inputs, where pushing keys into a join that
  // matches nearly all of them costs more than it saves. Also used by the
  // ablation benchmark (bench/bench_pushdown_ablation.cc) and for
  // debugging.
  // The thresholds that decide when pushdown pays are constants in
  // evaluator.cc (kPushdownMaxKeys, kPushdownSelectivityFactor).
  bool enable_pushdown = true;

  // Accepted and ignored: kept only for perfbench, which sets it.
  // Evaluation always runs on the calling thread.
  size_t num_threads = 0;

  // Cached-tuples budget of the subplan recycler cache (see
  // algebra/subplan_cache.h). 0 disables memoization entirely, reproducing
  // pre-cache evaluation exactly; a nonzero budget lets the evaluator
  // recycle subplans whose input relation versions are unchanged, with LRU
  // eviction once the cached results exceed the budget.
  size_t cache_budget_tuples = 0;

  // Cooperative cancellation context (borrowed; may be null — the default,
  // which is exactly the ungoverned pipeline). The evaluator checks it at
  // every operator entry and charges every operator's materialized output
  // tuples against its budget; the join, filter, difference and projection
  // row loops re-check and charge every kCancelCheckTuples rows. A fired
  // token surfaces as DeadlineExceeded / ResourceExhausted / Aborted from
  // Eval/Materialize; no partial result is ever returned or cached (the
  // subplan cache only ever sees successful evaluations).
  const CancelToken* cancel = nullptr;
};

// Execution counters, EXPLAIN-style: how an evaluation did its work.
// Retrieved via Evaluator::stats() after one or more evaluations.
struct EvalStats {
  // Join nodes evaluated, and how many took the pushdown fast path.
  size_t joins = 0;
  size_t pushdown_joins = 0;
  // Difference nodes evaluated / taking the restricted-right fast path.
  size_t differences = 0;
  size_t pushdown_differences = 0;
  // Index key lookups performed against base relations by pushed filters.
  size_t index_probes = 0;
  // Always 0: kept only for perfbench, which reports it. No operator runs
  // in parallel.
  size_t parallel_kernels = 0;
  // Subplan-cache outcomes: memoized results recycled / evaluated fresh /
  // entries evicted to hold the tuple budget. All zero when the cache is
  // disabled (cache_budget_tuples == 0) or not wired up.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t cache_evictions = 0;
  // Resolutions of environment bindings tagged with MarkSource — data the
  // warehouse pulled from a source. Zero on a SELF/COMPLEMENT-certified
  // integration; the warehouse's certificate cross-check asserts this.
  size_t source_reads = 0;

  // Accumulates `other` into this (all counters add). The warehouse uses
  // this to fold the stats of a refresh's evaluators into one report.
  void MergeFrom(const EvalStats& other);

  std::string ToString() const;
};

class Evaluator {
 public:
  // `env` must outlive the evaluator and is not owned. `interner` and
  // `cache` (both optional, both borrowed) enable subplan memoization:
  // expressions interned through `interner` carry canonical ids, and
  // results of id-carrying subplans are recycled from `cache` whenever the
  // (uid, version) snapshot of their input relations is unchanged. With
  // either absent — or with options.cache_budget_tuples == 0 — evaluation
  // is exactly the uncached pipeline.
  explicit Evaluator(const Environment* env,
                     EvaluatorOptions options = EvaluatorOptions(),
                     const ExprInterner* interner = nullptr,
                     SubplanCache* cache = nullptr)
      : env_(env),
        options_(options),
        interner_(interner),
        cache_(options.cache_budget_tuples > 0 ? cache : nullptr) {}

  // Returns a relation that may alias a bound relation (kBase leaves).
  // The result is invalidated by mutating the aliased relation.
  Result<std::shared_ptr<const Relation>> Eval(const Expr& expr);

  // Returns the result as an owned relation. It shares its tuples with the
  // result (a bound relation, a cached result, or the evaluator's own), so
  // this costs O(1); a mutation of it clones them first.
  Result<Relation> Materialize(const Expr& expr);

  // Counters accumulated across all evaluations by this evaluator.
  const EvalStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EvalStats(); }

 private:
  struct EvalOut {
    std::shared_ptr<const Relation> rel;
    // True if `rel` aliases an environment binding (so its index cache
    // persists across evaluations).
    bool stable = false;
  };

  // Key filter for semijoin pushdown: only tuples whose projection onto
  // `attrs` is in `keys` survive. This is what makes delta-maintenance
  // expressions O(|delta|): a small relation joined or differenced against
  // a big reconstruction expression pushes its key set through
  // pi/sigma/union/difference/rename down to the base relations, which are
  // probed via their cached indexes instead of being scanned.
  struct KeyFilter {
    std::vector<std::string> attrs;
    const Relation::TupleSet* keys = nullptr;
  };

  // Which side of a hash join the index is built on.
  enum class BuildSide { kLeft, kRight, kLarger };

  // Memo wrapper: consults the subplan cache (when wired) before delegating
  // to EvalNode, and stores fresh exact results afterwards. Every recursive
  // evaluation funnels through here, so sharing applies at all levels of
  // the DAG. Filtered evaluations (`filter` non-null) bypass the cache:
  // their results are subsets, not the subplan's value.
  Result<EvalOut> EvalInternal(const Expr& expr,
                               const KeyFilter* filter = nullptr);
  // The operator dispatch: evaluates `expr`, restricted (exactly) to the
  // tuples matching `filter` when it is non-null.
  Result<EvalOut> EvalNode(const Expr& expr, const KeyFilter* filter);
  Result<EvalOut> EvalJoin(const Expr& expr, const KeyFilter* filter);
  Result<EvalOut> EvalDifference(const Expr& expr, const KeyFilter* filter);

  // Per-operator cancellation point / budget accounting; Ok when no token
  // is wired (options_.cancel == nullptr).
  Status CheckCancel() const {
    return options_.cancel == nullptr ? Status::Ok()
                                      : options_.cancel->Check();
  }
  Status ChargeTuples(size_t tuples) const {
    return options_.cancel == nullptr ? Status::Ok()
                                      : options_.cancel->Charge(tuples);
  }

  // Kernels. Each row loop is a cancellation point (see RowMeter in
  // evaluator.cc).
  Result<Relation> HashJoin(const Relation& left, const Relation& right,
                            BuildSide side);
  Result<Relation> ProbeBase(const Relation& rel, const KeyFilter& filter,
                             const Predicate* predicate);
  Status FilterInto(const Relation& in, const Predicate& predicate,
                    Relation* out);
  Status ProjectInto(const Relation& in, const std::vector<size_t>& indices,
                     Relation* out);
  Result<Relation> SubtractInto(const Relation& left, const Relation& right);

  // Crude cardinality estimate used to decide pushdown direction.
  size_t EstimateSize(const Expr& expr) const;

  const Environment* env_;
  EvaluatorOptions options_;
  const ExprInterner* interner_ = nullptr;
  SubplanCache* cache_ = nullptr;
  EvalStats stats_;
};

// One-shot convenience.
Result<Relation> EvalExpr(const Expr& expr, const Environment& env);

}  // namespace dwc

#endif  // DWC_ALGEBRA_EVALUATOR_H_
