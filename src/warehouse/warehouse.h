#ifndef DWC_WAREHOUSE_WAREHOUSE_H_
#define DWC_WAREHOUSE_WAREHOUSE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "aggregate/aggregate_view.h"
#include "algebra/environment.h"
#include "algebra/evaluator.h"
#include "analysis/selfmaint.h"
#include "core/query_translation.h"
#include "core/warehouse_spec.h"
#include "maintenance/plan.h"
#include "relational/database.h"
#include "util/result.h"
#include "warehouse/epoch.h"
#include "warehouse/source.h"
#include "warehouse/update.h"

namespace dwc {

// How the integrator refreshes the warehouse when a source reports a delta.
enum class MaintenanceStrategy {
  // Evaluate the precomputed incremental maintenance expressions against the
  // old warehouse state plus the delta (the paper's approach; zero source
  // queries, O(|delta|)-ish work).
  kIncremental,
  // Reconstruct all base relations through W^-1, apply the delta, recompute
  // every warehouse relation from scratch. Still zero source queries (update
  // independent), but O(|database|) per refresh. The paper's Section 4
  // "not feasible ... to recompute from scratch" strawman; used as the
  // second baseline in bench/bench_maintenance.cc.
  kRecomputeFromInverse,
  // Recompute the warehouse by querying the sources (the traditional,
  // non-self-maintainable integrator). Requires a live Source; every refresh
  // increments its query counter. First baseline in the benchmarks.
  kQuerySource,
};

const char* MaintenanceStrategyName(MaintenanceStrategy strategy);

// A running warehouse: the materialized state of W = V ∪ C plus the machinery
// to answer translated queries and integrate reported source deltas.
//
// Concurrency model (see warehouse/epoch.h and DESIGN.md §12): one writer —
// whoever drives Integrate/IntegrateTransaction/ResetFromSources/
// AddAggregateView — plus any number of concurrent reader threads going
// through PinSnapshot/AnswerQuery/AnswerQueryAt. Every successful state
// transition publishes a new snapshot epoch as its final act; readers
// evaluate against the pinned epoch's frozen version set and never observe a
// half-applied integration. Configuration setters (SetEvaluatorOptions,
// set_validate_deltas, ...) are writer-side: call them before concurrent
// serving starts. All other accessors that touch `state()` directly
// (FindRelation, Env, ReconstructSources, ...) read the writer's live state
// and are not synchronized against it.
class Warehouse {
 public:
  // Materializes all warehouse relations from the initial source state and
  // (for kIncremental) derives the maintenance plan.
  static Result<Warehouse> Load(std::shared_ptr<const WarehouseSpec> spec,
                                const Database& sources,
                                MaintenanceStrategy strategy =
                                    MaintenanceStrategy::kIncremental);

  // A copied warehouse is an independent store: its relations are fresh
  // objects (fresh uids) that share the original's tuples until either side
  // mutates (relational/database.h), it has its own epoch timeline starting
  // at 1, and it shares the subplan cache (safe: fresh uids can never
  // falsely hit the original's entries).
  Warehouse(const Warehouse& other)
      : spec_(other.spec_), strategy_(other.strategy_) {
    CopyFrom(other);
  }
  Warehouse& operator=(const Warehouse& other) {
    if (this != &other) {
      CopyFrom(other);
    }
    return *this;
  }
  Warehouse(Warehouse&&) noexcept = default;
  Warehouse& operator=(Warehouse&&) noexcept = default;

  const WarehouseSpec& spec() const { return *spec_; }
  MaintenanceStrategy strategy() const { return strategy_; }
  // The single-base entries of the incremental plan table (empty under
  // the other strategies).
  MaintenancePlan plan() const;

  // Materialized warehouse relation by name; nullptr when absent.
  const Relation* FindRelation(const std::string& name) const {
    return state_.FindRelation(name);
  }
  const Database& state() const { return state_; }

  // Integrates one reported delta: the one-delta case of
  // IntegrateTransaction. `source` is only consulted under kQuerySource
  // (pass nullptr otherwise).
  Status Integrate(const CanonicalDelta& delta, const Source* source = nullptr);

  // Integrates a multi-relation transaction atomically: all deltas are
  // treated as one state transition (maintenance expressions are derived
  // for the simultaneous update — Theorem 4.1 places no single-relation
  // restriction on u). Every refresh runs here. Deltas must be canonical
  // relative to the pre-transaction state and carry at most one non-empty
  // entry per relation (Source::ApplyTransaction produces exactly this
  // form).
  //
  // Argument checks come first, under every strategy: each delta names a
  // base relation (NotFound otherwise), each non-empty side carries that
  // base's attributes (InvalidArgument otherwise), and kQuerySource has a
  // source (InvalidArgument otherwise). After them an update whose deltas
  // are all empty is a no-op that publishes nothing. Then one dispatch on
  // the strategy: the plan-table entry for the updated bases (incremental),
  // or a full rebuild from W^-1 plus the deltas or from the source.
  Status IntegrateTransaction(const std::vector<CanonicalDelta>& deltas,
                              const Source* source = nullptr);

  // Registers a summary table (Section 5's OLAP layer) over warehouse
  // relations and materializes it from the current state. Under
  // kIncremental it is maintained from the exact deltas of its source
  // expression; under the other strategies it is re-initialized per
  // refresh. The materialized aggregate is visible to AnswerQuery under its
  // name.
  Status AddAggregateView(AggregateViewDef def);
  // nullptr when absent.
  const AggregateView* FindAggregate(const std::string& name) const;

  // Pins the current snapshot epoch. The handle's version set (all
  // warehouse relations + aggregate views) stays frozen and readable for
  // the handle's lifetime, no matter how many integrations commit
  // meanwhile. Readers on other threads use this + AnswerQueryAt.
  SnapshotHandle PinSnapshot() const { return epochs_->Pin(); }

  // Answers a query over the *base* relations using warehouse data only
  // (Theorem 3.1: translate through W^-1, evaluate locally). Queries may
  // also reference warehouse views and aggregate views by name. When
  // `stats` is non-null it receives the evaluator's EXPLAIN counters.
  // Pins the current epoch for the duration of the call; safe to invoke
  // from any thread concurrently with an in-flight integration.
  //
  // `cancel` (borrowed; may be null) makes the evaluation deadline-,
  // budget- and cancel-bounded: a fired token surfaces as DeadlineExceeded
  // / ResourceExhausted / Aborted, the partial result is discarded, the
  // snapshot pin is released (RAII), and the subplan cache is untouched
  // (only successful evaluations are ever inserted). See DESIGN.md §13.
  Result<Relation> AnswerQuery(const ExprRef& query,
                               EvalStats* stats = nullptr,
                               const CancelToken* cancel = nullptr) const;

  // AnswerQuery against an explicitly pinned epoch: the result reflects
  // exactly that epoch's committed state. Fails with Status::Aborted once
  // the snapshot has been shed by the epoch-lag backpressure policy.
  Result<Relation> AnswerQueryAt(const SnapshotHandle& snapshot,
                                 const ExprRef& query,
                                 EvalStats* stats = nullptr,
                                 const CancelToken* cancel = nullptr) const;

  // The interned plan AnswerQueryAt evaluates for `query` over `snapshot`
  // (PlanTranslation with the snapshot's aggregate views resolvable). For a
  // query over base relations and warehouse views it is the node
  // TranslateQuery returns.
  Result<ExprRef> PlanQueryAt(const SnapshotHandle& snapshot,
                              const ExprRef& query) const;

  // Snapshot-epoch observability. current_epoch() is the number of the
  // most recently published epoch (1 right after Load; +1 per committed
  // state transition; distinct from the *delivery* epochs on
  // CanonicalDelta envelopes).
  uint64_t current_epoch() const { return epochs_->current_epoch(); }
  EpochStats epoch_stats() const { return epochs_->stats(); }

  // Rebuilds the full base database state through W^-1 (Proposition 2.1's
  // one-to-one mapping, inverted). Used by recompute refreshes, consistency
  // checks and tests.
  Result<Database> ReconstructSources() const {
    return ReconstructSources(nullptr);
  }

  // Rebuilds one base relation through its inverse expression (aligned to
  // the declared schema). NotFound when the base has no inverse — e.g. a
  // partial warehouse. Used by delta validation and the recovery ladder's
  // targeted resync (ingest.h).
  Result<Relation> ReconstructBase(const std::string& name) const {
    return ReconstructBase(name, nullptr);
  }

  // Rung 3 of the recovery ladder (ingest.h): rematerializes every
  // warehouse relation from a fresh copy of the base state and
  // re-initializes the aggregates, abandoning whatever the current state
  // holds. Leaves the old state in place on failure. Not a refresh: it
  // passes no crash-injection step and leaves last_integrate_stats() alone.
  Status ResetFromSources(const Database& sources);

  // When enabled, Integrate/IntegrateTransaction reconstruct each affected
  // base through W^-1 and reject non-canonical deltas (an insert already
  // present, or a delete of an absent tuple) before touching any state.
  // Off by default: the check costs O(|base|) per refresh, which would
  // forfeit the O(|delta|) incremental story on trusted channels; the
  // fault-tolerant ingestion layer and the tests enable it.
  void set_validate_deltas(bool validate) { validate_deltas_ = validate; }
  bool validate_deltas() const { return validate_deltas_; }

  // Execution knobs for every evaluator this warehouse constructs
  // (pushdown thresholds, subplan-cache budget). Takes effect for
  // subsequent operations; the cache budget never changes results (see
  // EvaluatorOptions).
  void SetEvaluatorOptions(const EvaluatorOptions& options) {
    evaluator_options_ = options;
    subplan_cache_->set_budget(options.cache_budget_tuples);
  }
  const EvaluatorOptions& evaluator_options() const {
    return evaluator_options_;
  }

  // Evaluator counters accumulated during the most recent
  // Integrate/IntegrateTransaction call, with the stats of every evaluator
  // it ran merged in (EvalStats::MergeFrom): validation, maintenance
  // expressions and aggregate folds, or W^-1 and the views of a full
  // rebuild. Returns a copy taken under the stats mutex, so it is safe to
  // call from any thread while an integration is in flight (the copy is
  // the last *finished* integration's view).
  EvalStats last_integrate_stats() const {
    std::lock_guard<std::mutex> lock(*stats_mu_);
    return last_integrate_stats_;
  }
  // The snapshot epoch published by that integration (0 when the last
  // integration didn't publish — e.g. it failed — or none ran yet). Lets a
  // monitor correlate the counters with exactly one committed state.
  uint64_t last_integrate_epoch() const {
    std::lock_guard<std::mutex> lock(*stats_mu_);
    return last_integrate_epoch_;
  }

  // Debug cross-check of the static analyzer (src/analysis/): after each
  // integration, if the evaluators touched source-tagged bindings
  // (EvalStats::source_reads > 0) but no certificate for an affected
  // (base, delta-kind) admits SOURCE maintenance, the integration fails
  // loudly with Status::Internal — a SELF/COMPLEMENT certificate was
  // violated at runtime. Pass nullptr to disable (the default; the check
  // is for tests and debugging, not the hot path).
  void EnforceCertificates(std::shared_ptr<const SelfMaintReport> report) {
    certificates_ = std::move(report);
  }
  const SelfMaintReport* certificates() const { return certificates_.get(); }

  // The subplan recycler cache shared by every evaluator this warehouse
  // constructs (see algebra/subplan_cache.h). Purely derived state: it is
  // never checkpointed and starts cold after DurableWarehouse::Resume.
  // Inert until SetEvaluatorOptions grants a nonzero cache_budget_tuples.
  const SubplanCache& subplan_cache() const { return *subplan_cache_; }

  // Testing hook for the crash-injection harness: invoked with a step index
  // that increases through each integration call; a non-OK return aborts
  // integration at exactly that internal step, simulating a crash whose
  // partial state is then discarded by checkpoint + journal recovery
  // (persistence.h). Pass nullptr to clear.
  void SetIntegrationHook(std::function<Status(int)> hook) {
    integration_hook_ = std::move(hook);
  }

  // An evaluation environment over the warehouse state (including
  // materialized aggregate views). Writer-side: binds the live state, not
  // a snapshot.
  Environment Env() const {
    Environment env = Environment::FromDatabase(state_);
    for (const auto& [name, view] : aggregates_) {
      env.Bind(name, &view.materialized());
    }
    return env;
  }

 private:
  Warehouse(std::shared_ptr<const WarehouseSpec> spec,
            MaintenanceStrategy strategy)
      : spec_(std::move(spec)), strategy_(strategy) {}

  void CopyFrom(const Warehouse& other);

  // Maintenance expressions per warehouse relation, for one set of
  // simultaneously updated bases.
  using DeltaPlan = std::map<std::string, DeltaPair>;

  // Rejects a non-canonical delta (an insert already present, a delete of
  // an absent tuple) against its W^-1-reconstructed base.
  Status ValidateCanonical(const std::vector<const CanonicalDelta*>& deltas,
                           EvalStats* stats) const;
  // The plan-table entry for `bases`, derived and interned on first use.
  Result<const DeltaPlan*> PlanFor(const std::set<std::string>& bases);
  // Crash-injection hook call site; no-op without a hook installed.
  Status HookStep() {
    return integration_hook_ ? integration_hook_(hook_step_++) : Status::Ok();
  }
  // The incremental refresh: evaluates `plan` against the old state with
  // every delta bound and folds the summary tables, then applies both in a
  // commit that cannot fail on the delta's account.
  Status ApplyPlanned(const DeltaPlan& plan,
                      const std::vector<const CanonicalDelta*>& deltas,
                      EvalStats* stats);
  // Step 1 of the two full rebuilds: the updated base state, reconstructed
  // through W^-1 or pulled from the source. Both end in Rebuild.
  Status RebuildFromInverse(const std::vector<const CanonicalDelta*>& deltas,
                            EvalStats* stats);
  Status RebuildFromSource(const Source& source, EvalStats* stats);
  // Step 2 of every full rebuild (and of ResetFromSources): materializes
  // the views over `bases`, re-initializes the aggregates, rolling both
  // back if that fails, and publishes. `stats` is null outside a refresh,
  // which then also passes no crash-injection step.
  Status Rebuild(const Environment& bases, EvalStats* stats);
  // The EnforceCertificates() cross-check; Ok when no report is installed.
  Status CheckCertificates(const std::vector<const CanonicalDelta*>& deltas,
                           const EvalStats& stats) const;

  // Materializes all warehouse relations from an environment that binds the
  // base relations. Neither installs nor publishes the result.
  Result<Database> MaterializeFrom(const Environment& base_env,
                                   EvalStats* stats) const;
  // ReconstructSources/ReconstructBase, merging the evaluators' counters
  // into `stats` when it is non-null.
  Result<Database> ReconstructSources(EvalStats* stats) const;
  Result<Relation> ReconstructBase(const std::string& name,
                                   EvalStats* stats) const;

  // The frozen version set of the current live state (relations +
  // aggregate tables), ready to publish as an epoch.
  EpochManager::VersionSet CurrentVersions() const;
  // Publishes the live state as the next snapshot epoch and tags the
  // last-integrate stats with it. Every successful state transition ends
  // here (or in ApplyPlanned's Commit::Publish).
  void PublishCurrent();

  void TagIntegrateEpoch(uint64_t epoch) {
    std::lock_guard<std::mutex> lock(*stats_mu_);
    last_integrate_epoch_ = epoch;
  }

  // Every evaluator the warehouse runs is wired to the spec's interner and
  // this warehouse's subplan cache (a no-op while the budget is 0). A
  // query layers its cancellation token onto the warehouse-wide options;
  // integrations stay ungoverned here — admission control bounds them
  // before they start.
  Evaluator MakeEvaluator(const Environment* env,
                          const CancelToken* cancel = nullptr) const {
    EvaluatorOptions options = evaluator_options_;
    options.cancel = cancel;
    return Evaluator(env, options, spec_->interner().get(),
                     subplan_cache_.get());
  }

  std::shared_ptr<const WarehouseSpec> spec_;
  MaintenanceStrategy strategy_;
  // The incremental plan table, keyed by the set of updated bases: Load
  // fills the single-base keys, and a transaction adds its key on first use.
  std::map<std::set<std::string>, DeltaPlan> plans_;
  Database state_;
  std::map<std::string, AggregateView> aggregates_;
  // Cached source-delta expressions per (aggregate, set of changed
  // warehouse relations), keyed by "<aggregate>|<rel1>,<rel2>".
  std::map<std::string, DeltaPair> aggregate_delta_cache_;
  EvaluatorOptions evaluator_options_;
  // Held by pointer so Warehouse stays movable/copyable (the cache embeds a
  // mutex). A copied warehouse shares the cache storage, which is safe: its
  // relations carry fresh uids, so it can never falsely hit the original's
  // entries. AnswerQuery and the reconstruction helpers are logically const
  // but still recycle (and populate) cached subplans.
  std::shared_ptr<SubplanCache> subplan_cache_ =
      std::make_shared<SubplanCache>();
  // Snapshot-epoch timeline (warehouse/epoch.h). shared_ptr: snapshot
  // handles keep the manager alive even past the warehouse, and the
  // warehouse stays movable.
  std::shared_ptr<EpochManager> epochs_ = std::make_shared<EpochManager>();
  // Guards last_integrate_stats_/last_integrate_epoch_ against concurrent
  // monitor reads while the writer integrates. Heap-held so the warehouse
  // stays movable.
  std::shared_ptr<std::mutex> stats_mu_ = std::make_shared<std::mutex>();
  EvalStats last_integrate_stats_;
  uint64_t last_integrate_epoch_ = 0;
  std::shared_ptr<const SelfMaintReport> certificates_;
  bool validate_deltas_ = false;
  std::function<Status(int)> integration_hook_;
  int hook_step_ = 0;
};

// Verifies that every warehouse relation equals its definition evaluated on
// `sources` (the ground truth): the dashed-arrow check in Figure 3.
Status CheckConsistency(const Warehouse& warehouse, const Database& sources);

}  // namespace dwc

#endif  // DWC_WAREHOUSE_WAREHOUSE_H_
