#include "warehouse/warehouse.h"

#include <optional>
#include <utility>

#include "algebra/evaluator.h"
#include "core/query_translation.h"
#include "util/string_util.h"

namespace dwc {

const char* MaintenanceStrategyName(MaintenanceStrategy strategy) {
  switch (strategy) {
    case MaintenanceStrategy::kIncremental:
      return "incremental";
    case MaintenanceStrategy::kRecomputeFromInverse:
      return "recompute-from-inverse";
    case MaintenanceStrategy::kQuerySource:
      return "query-source";
  }
  return "unknown";
}

Result<Warehouse> Warehouse::Load(std::shared_ptr<const WarehouseSpec> spec,
                                  const Database& sources,
                                  MaintenanceStrategy strategy) {
  if (spec == nullptr) {
    return Status::InvalidArgument("spec must not be null");
  }
  Warehouse warehouse(std::move(spec), strategy);
  if (strategy == MaintenanceStrategy::kIncremental) {
    // The single-base keys of the plan table, which every one-delta refresh
    // reads (DeriveMaintenancePlan's entries).
    for (const std::string& base :
         warehouse.spec_->catalog().RelationNames()) {
      DWC_RETURN_IF_ERROR(warehouse.PlanFor({base}).status());
    }
  }
  Environment env = Environment::FromDatabase(sources);
  DWC_ASSIGN_OR_RETURN(warehouse.state_,
                       warehouse.MaterializeFrom(env, nullptr));
  // Epoch 1: the loaded state. Every later committed transition publishes
  // the next epoch; readers pin whatever is current when they arrive.
  warehouse.epochs_->Publish(warehouse.CurrentVersions());
  return warehouse;
}

void Warehouse::CopyFrom(const Warehouse& other) {
  spec_ = other.spec_;
  strategy_ = other.strategy_;
  plans_ = other.plans_;
  state_ = other.state_;
  aggregates_ = other.aggregates_;
  aggregate_delta_cache_ = other.aggregate_delta_cache_;
  evaluator_options_ = other.evaluator_options_;
  subplan_cache_ = other.subplan_cache_;
  // An independent epoch timeline: snapshots pinned on the original must
  // not see (or delay reclamation of) the copy's state, and vice versa.
  epochs_ = std::make_shared<EpochManager>();
  stats_mu_ = std::make_shared<std::mutex>();
  {
    std::lock_guard<std::mutex> lock(*other.stats_mu_);
    last_integrate_stats_ = other.last_integrate_stats_;
  }
  last_integrate_epoch_ = 0;
  certificates_ = other.certificates_;
  validate_deltas_ = other.validate_deltas_;
  integration_hook_ = other.integration_hook_;
  hook_step_ = other.hook_step_;
  epochs_->Publish(CurrentVersions());
}

MaintenancePlan Warehouse::plan() const {
  MaintenancePlan plan;
  for (const auto& [bases, per_relation] : plans_) {
    if (bases.size() != 1) {
      continue;
    }
    for (const auto& [relation, pair] : per_relation) {
      plan.Set(relation, *bases.begin(), pair);
    }
  }
  return plan;
}

EpochManager::VersionSet Warehouse::CurrentVersions() const {
  EpochManager::VersionSet versions;
  for (const auto& [name, rel] : state_.relations()) {
    versions.emplace(name, rel);
  }
  for (const auto& [name, view] : aggregates_) {
    versions.emplace(name, view.shared_materialized());
  }
  return versions;
}

void Warehouse::PublishCurrent() {
  epochs_->Publish(CurrentVersions());
  TagIntegrateEpoch(epochs_->current_epoch());
}

Result<Database> Warehouse::MaterializeFrom(const Environment& base_env,
                                            EvalStats* stats) const {
  // Views may be referenced by complement definitions, so bind them as they
  // materialize.
  Environment env = base_env;
  Database fresh;
  // Each view is evaluated once over full inputs, where pushdown does not
  // pay: in a key/foreign-key join nearly every pushed key matches, so
  // probing the other side key by key costs more than one hash join.
  EvaluatorOptions options = evaluator_options_;
  options.enable_pushdown = false;
  for (const ViewDef& view : spec_->AllWarehouseViews()) {
    Evaluator evaluator(&env, options, spec_->interner().get(),
                        subplan_cache_.get());
    Result<std::shared_ptr<const Relation>> rel = evaluator.Eval(*view.expr);
    if (stats != nullptr) {
      stats->MergeFrom(evaluator.stats());
    }
    if (!rel.ok()) {
      return rel.status();
    }
    // A stored view gets a deep copy, not a share of the evaluator's output
    // (which Materialize or a plain copy would give): the output's tuples
    // lie scattered among the join's temporaries. Keeping that output
    // raised the perfbench `refresh` peak RSS by 12 MB, and sharing it
    // slowed `broad` queries from 520–540 µs to 620–920 µs (DESIGN.md §9).
    DWC_RETURN_IF_ERROR(fresh.AddRelation(view.name, (*rel)->DeepCopy()));
    env.Bind(view.name, fresh.FindRelation(view.name));
  }
  return fresh;
}

Status Warehouse::Integrate(const CanonicalDelta& delta,
                            const Source* source) {
  return IntegrateTransaction({delta}, source);
}

Status Warehouse::IntegrateTransaction(
    const std::vector<CanonicalDelta>& deltas, const Source* source) {
  hook_step_ = 0;
  {
    std::lock_guard<std::mutex> lock(*stats_mu_);
    last_integrate_stats_ = EvalStats();
    last_integrate_epoch_ = 0;
  }
  // Argument checks, before any work. An empty side may carry no schema (a
  // default-constructed Relation); such a delta is retyped, so that every
  // strategy binds and aligns sides of the base's schema.
  std::vector<CanonicalDelta> retyped;
  retyped.reserve(deltas.size());
  std::vector<const CanonicalDelta*> updates;
  std::set<std::string> bases;
  for (const CanonicalDelta& delta : deltas) {
    const Schema* schema = spec_->catalog().FindSchema(delta.relation);
    if (schema == nullptr) {
      return Status::NotFound(StrCat("delta targets unknown base relation '",
                                     delta.relation, "'"));
    }
    bool typed = true;
    for (const Relation* side : {&delta.inserts, &delta.deletes}) {
      if (side->schema().SameAttrsAs(*schema)) {
        continue;
      }
      if (!side->empty()) {
        return Status::InvalidArgument(
            StrCat("delta for '", delta.relation, "' carries ",
                   side->schema().ToString(), ", not the base's ",
                   schema->ToString()));
      }
      typed = false;
    }
    if (delta.empty()) {
      continue;
    }
    if (!bases.insert(delta.relation).second) {
      return Status::InvalidArgument(
          StrCat("transaction carries two deltas for '", delta.relation,
                 "'; merge them first (Source::ApplyTransaction does)"));
    }
    if (typed) {
      updates.push_back(&delta);
    } else {  // The mistyped side is the empty one.
      CanonicalDelta& copy = retyped.emplace_back(delta);
      (copy.inserts.empty() ? copy.inserts : copy.deletes) = Relation(*schema);
      updates.push_back(&copy);
    }
  }
  if (strategy_ == MaintenanceStrategy::kQuerySource && source == nullptr) {
    return Status::InvalidArgument(
        "kQuerySource maintenance needs a live Source");
  }
  if (updates.empty()) {
    return Status::Ok();  // Nothing changes, so nothing publishes.
  }

  EvalStats stats;
  Status status =
      validate_deltas_ ? ValidateCanonical(updates, &stats) : Status::Ok();
  if (status.ok()) {
    switch (strategy_) {
      case MaintenanceStrategy::kIncremental: {
        Result<const DeltaPlan*> plan = PlanFor(bases);
        status =
            plan.ok() ? ApplyPlanned(**plan, updates, &stats) : plan.status();
        break;
      }
      case MaintenanceStrategy::kRecomputeFromInverse:
        status = RebuildFromInverse(updates, &stats);
        break;
      case MaintenanceStrategy::kQuerySource:
        status = RebuildFromSource(*source, &stats);
        break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(*stats_mu_);
    last_integrate_stats_ = stats;
  }
  DWC_RETURN_IF_ERROR(status);
  return CheckCertificates(updates, stats);
}

Status Warehouse::ValidateCanonical(
    const std::vector<const CanonicalDelta*>& deltas, EvalStats* stats) const {
  for (const CanonicalDelta* delta : deltas) {
    if (spec_->FindInverse(delta->relation) == nullptr) {
      continue;
    }
    // Canonical-form check against the reconstructed base: inserts must be
    // new, deletes must be present. Rejecting here keeps every later phase
    // infallible-by-construction on the delta's account.
    DWC_ASSIGN_OR_RETURN(Relation base, ReconstructBase(delta->relation, stats));
    for (bool insert : {true, false}) {
      const Relation& side = insert ? delta->inserts : delta->deletes;
      DWC_ASSIGN_OR_RETURN(Relation aligned, side.AlignTo(base.schema()));
      for (const Tuple& tuple : aligned.tuples()) {
        if (base.Contains(tuple) == insert) {
          return Status::InvalidArgument(StrCat(
              "non-canonical delta for '", delta->relation, "': ",
              insert ? "insert " : "delete ", tuple.ToString(),
              insert ? " is already present" : " is not present"));
        }
      }
    }
  }
  return Status::Ok();
}

Result<const Warehouse::DeltaPlan*> Warehouse::PlanFor(
    const std::set<std::string>& bases) {
  auto it = plans_.find(bases);
  if (it == plans_.end()) {
    DWC_ASSIGN_OR_RETURN(DeltaPlan plan, DeriveTransactionPlan(*spec_, bases));
    // Cross-expression CSE: shared structure (each R̂i, the inverse
    // expressions, repeated delta-semijoins) collapses onto the spec's
    // canonical DAG, so the subplan cache can recycle results between
    // maintenance rounds and translated queries.
    for (auto& [relation, pair] : plan) {
      (void)relation;
      pair.plus = spec_->interner()->Intern(pair.plus);
      pair.minus = spec_->interner()->Intern(pair.minus);
    }
    it = plans_.emplace(bases, std::move(plan)).first;
  }
  return &it->second;
}

Status Warehouse::ApplyPlanned(
    const DeltaPlan& plan, const std::vector<const CanonicalDelta*>& deltas,
    EvalStats* stats) {
  // Bind the old warehouse state plus all reported deltas.
  Environment env = Env();
  for (const CanonicalDelta* delta : deltas) {
    env.Bind(DeltaInsName(delta->relation), &delta->inserts);
    env.Bind(DeltaDelName(delta->relation), &delta->deletes);
  }
  // Evaluate all deltas against the *old* state first, then apply.
  // Everything fallible (evaluation, relation lookup, schema alignment)
  // happens in this phase, before the first mutation — the commit phase
  // below cannot fail on the delta's account.
  struct Pending {
    std::string relation;
    Relation* target = nullptr;
    Relation plus;
    Relation minus;
  };
  std::vector<Pending> pending;
  pending.reserve(plan.size());
  Evaluator evaluator = MakeEvaluator(&env);
  auto evaluate = [&]() -> Status {
    for (const auto& [relation, pair] : plan) {
      DWC_RETURN_IF_ERROR(HookStep());
      Pending& p = pending.emplace_back();
      p.relation = relation;
      p.target = state_.FindMutableRelation(relation);
      if (p.target == nullptr) {
        return Status::Internal(
            StrCat("warehouse relation '", relation, "' missing"));
      }
      DWC_ASSIGN_OR_RETURN(Relation plus, evaluator.Materialize(*pair.plus));
      DWC_ASSIGN_OR_RETURN(p.plus, plus.AlignTo(p.target->schema()));
      DWC_ASSIGN_OR_RETURN(Relation minus,
                           evaluator.Materialize(*pair.minus));
      DWC_ASSIGN_OR_RETURN(p.minus, minus.AlignTo(p.target->schema()));
    }
    return Status::Ok();
  };
  Status evaluated = evaluate();
  stats->MergeFrom(evaluator.stats());
  DWC_RETURN_IF_ERROR(evaluated);

  // Summary tables: derive (and cache) the exact deltas of each aggregate's
  // source expression with respect to the changed warehouse relations,
  // evaluate them against the old state and fold them. A fold reads only
  // the view and the delta, so it too happens before anything is applied.
  std::vector<std::pair<AggregateView*, AggregateView::Folded>> folded;
  if (!aggregates_.empty()) {
    std::set<std::string> changed;
    for (const Pending& p : pending) {
      if (!p.plus.empty() || !p.minus.empty()) {
        changed.insert(p.relation);
      }
    }
    if (!changed.empty()) {
      // Bind ins:/del: for every changed warehouse relation.
      Environment agg_env = env;
      for (const Pending& p : pending) {
        agg_env.Bind(DeltaInsName(p.relation), &p.plus);
        agg_env.Bind(DeltaDelName(p.relation), &p.minus);
      }
      SchemaResolver resolver = spec_->WarehouseResolver();
      for (auto& [name, view] : aggregates_) {
        bool touched = false;
        for (const std::string& ref : view.def().source->ReferencedNames()) {
          if (changed.count(ref) > 0) {
            touched = true;
            break;
          }
        }
        if (!touched) {
          continue;
        }
        DWC_RETURN_IF_ERROR(HookStep());
        std::string cache_key =
            StrCat(name, "|", Join(changed, ","));
        auto cached = aggregate_delta_cache_.find(cache_key);
        if (cached == aggregate_delta_cache_.end()) {
          DeltaDeriver deriver(changed, resolver);
          Result<DeltaPair> derived = deriver.Derive(view.def().source);
          if (!derived.ok()) {
            return derived.status();
          }
          derived->plus = spec_->interner()->Intern(derived->plus);
          derived->minus = spec_->interner()->Intern(derived->minus);
          cached = aggregate_delta_cache_
                       .emplace(cache_key, std::move(derived).value())
                       .first;
        }
        Evaluator agg_evaluator = MakeEvaluator(&agg_env);
        Result<Relation> plus = agg_evaluator.Materialize(*cached->second.plus);
        if (!plus.ok()) {
          return plus.status();
        }
        Result<Relation> minus =
            agg_evaluator.Materialize(*cached->second.minus);
        stats->MergeFrom(agg_evaluator.stats());
        if (!minus.ok()) {
          return minus.status();
        }
        DWC_ASSIGN_OR_RETURN(AggregateView::Folded fold,
                             view.Fold(*plus, *minus));
        folded.emplace_back(&view, std::move(fold));
      }
    }
  }

  // Commit phase: nothing below can fail on the delta's account. The epoch
  // manager picks the path: with zero pinned snapshots the commit mutates
  // relations in place while holding the commit lock — no reader can pin a
  // half-mutated state, the relations keep their lazily built indexes, and
  // the work stays O(|delta|). With readers in flight it applies each delta
  // to a clone and swaps the slots at the end (copy-on-write), so every
  // pinned version set stays frozen. Aggregate folds install a fresh table
  // on both paths. Either way the new epoch publishes as the commit's final
  // act: a failing HookStep() (simulated crash — returns without rollback,
  // torn in-memory state discarded by the caller via checkpoint + journal
  // recovery, persistence.h) never publishes, so concurrent readers keep
  // the previous epoch — never a half-epoch.
  EpochManager::Commit commit = epochs_->BeginCommit();
  std::vector<std::pair<std::string, std::shared_ptr<Relation>>> swaps;
  for (Pending& p : pending) {
    DWC_RETURN_IF_ERROR(HookStep());
    Relation* target = p.target;
    if (!commit.in_place()) {
      swaps.emplace_back(p.relation, std::make_shared<Relation>(*p.target));
      target = swaps.back().second.get();
    }
    // Deletions before insertions: the delta pair is exact, so the two sets
    // are disjoint and order only matters for storage churn.
    for (const Tuple& tuple : p.minus.tuples()) {
      target->Erase(tuple);
    }
    for (const Tuple& tuple : p.plus.tuples()) {
      target->Insert(tuple);
    }
  }
  // Final commit point: a crash here happens after all in-place mutations
  // but before the caller journals the delta, so recovery replays up to the
  // previous refresh.
  DWC_RETURN_IF_ERROR(HookStep());
  for (auto& [name, relation] : swaps) {
    DWC_RETURN_IF_ERROR(state_.ReplaceRelation(name, std::move(relation)));
  }
  for (auto& [view, fold] : folded) {
    view->Install(std::move(fold));
  }
  commit.Publish(CurrentVersions());
  TagIntegrateEpoch(epochs_->current_epoch());
  return Status::Ok();
}

Status Warehouse::AddAggregateView(AggregateViewDef def) {
  if (aggregates_.count(def.name) > 0 ||
      spec_->FindWarehouseSchema(def.name) != nullptr ||
      spec_->catalog().HasRelation(def.name)) {
    return Status::AlreadyExists(
        StrCat("name '", def.name, "' already in use"));
  }
  for (const std::string& ref : def.source->ReferencedNames()) {
    if (spec_->FindWarehouseSchema(ref) == nullptr) {
      return Status::InvalidArgument(
          StrCat("aggregate source references '", ref,
                 "', which is not a warehouse relation (aggregates sit on "
                 "top of the maintained views)"));
    }
  }
  std::string name = def.name;
  SchemaResolver resolver = spec_->WarehouseResolver();
  Result<AggregateView> view = AggregateView::Create(std::move(def), resolver);
  if (!view.ok()) {
    return view.status();
  }
  auto [it, inserted] = aggregates_.emplace(name, std::move(view).value());
  (void)inserted;
  Environment env = Env();
  Status status = it->second.Initialize(env);
  if (!status.ok()) {
    // Never leave a half-initialized view registered (it would poison every
    // later Env()/epoch publication).
    aggregates_.erase(it);
    return status;
  }
  PublishCurrent();
  return Status::Ok();
}

const AggregateView* Warehouse::FindAggregate(const std::string& name) const {
  auto it = aggregates_.find(name);
  return it == aggregates_.end() ? nullptr : &it->second;
}

Status Warehouse::RebuildFromInverse(
    const std::vector<const CanonicalDelta*>& deltas, EvalStats* stats) {
  // The deltas apply to a reconstructed copy, so a failure before Rebuild
  // installs anything leaves the warehouse untouched.
  DWC_RETURN_IF_ERROR(HookStep());
  DWC_ASSIGN_OR_RETURN(Database bases, ReconstructSources(stats));
  for (const CanonicalDelta* delta : deltas) {
    Relation* rel = bases.FindMutableRelation(delta->relation);
    if (rel == nullptr) {
      return Status::NotFound(
          StrCat("unknown base relation '", delta->relation, "'"));
    }
    for (bool insert : {false, true}) {
      const Relation& side = insert ? delta->inserts : delta->deletes;
      DWC_ASSIGN_OR_RETURN(Relation aligned, side.AlignTo(rel->schema()));
      for (const Tuple& tuple : aligned.tuples()) {
        if (insert) {
          rel->Insert(tuple);
        } else {
          rel->Erase(tuple);
        }
      }
    }
  }
  return Rebuild(Environment::FromDatabase(bases), stats);
}

Status Warehouse::RebuildFromSource(const Source& source, EvalStats* stats) {
  // The traditional integrator: pull every base relation the warehouse
  // definitions mention from the source. These bindings came off the wire,
  // not from the warehouse store: tagged, every resolution of them lands in
  // source_reads.
  Database bases;
  Environment env;
  for (const ViewDef& view : spec_->AllWarehouseViews()) {
    for (const std::string& name : view.expr->ReferencedNames()) {
      if (!spec_->catalog().HasRelation(name) || bases.HasRelation(name)) {
        continue;
      }
      DWC_ASSIGN_OR_RETURN(Relation rel, source.AnswerQuery(Expr::Base(name)));
      DWC_RETURN_IF_ERROR(bases.AddRelation(name, std::move(rel)));
      env.MarkSource(name);
    }
  }
  env.BindDatabase(bases);
  return Rebuild(env, stats);
}

Status Warehouse::Rebuild(const Environment& bases, EvalStats* stats) {
  auto step = [&] { return stats == nullptr ? Status::Ok() : HookStep(); };
  DWC_ASSIGN_OR_RETURN(Database fresh, MaterializeFrom(bases, stats));
  DWC_RETURN_IF_ERROR(step());
  // Whole-map swap: relation objects referenced by published epochs stay
  // alive through their shared slots, so pinned readers are unaffected.
  // The aggregates re-initialize over the new state; if one fails, both
  // roll back.
  Database old_state = std::exchange(state_, std::move(fresh));
  std::map<std::string, AggregateView> old_aggregates = aggregates_;
  Environment env = Env();
  for (auto& [name, view] : aggregates_) {
    (void)name;
    Status status = view.Initialize(env);
    if (!status.ok()) {
      state_ = std::move(old_state);
      aggregates_ = std::move(old_aggregates);
      return status;
    }
  }
  // A crash here leaves torn state the caller discards (checkpoint +
  // journal recovery) and, per the epoch contract, publishes nothing:
  // pinned readers keep the previous epoch.
  DWC_RETURN_IF_ERROR(step());
  PublishCurrent();
  return Status::Ok();
}

Status Warehouse::CheckCertificates(
    const std::vector<const CanonicalDelta*>& deltas,
    const EvalStats& stats) const {
  if (certificates_ == nullptr || stats.source_reads == 0) {
    return Status::Ok();
  }
  // Source traffic happened. That is fine exactly when some affected
  // (base, delta-kind) is certified SOURCE; otherwise a SELF/COMPLEMENT
  // certificate just lied and we fail loudly.
  for (const CanonicalDelta* delta : deltas) {
    bool insert_affected = !delta->inserts.empty();
    bool delete_affected = !delta->deletes.empty();
    if ((insert_affected &&
         certificates_->Overall(delta->relation, DeltaKind::kInsert) ==
             MaintVerdict::kSource) ||
        (delete_affected &&
         certificates_->Overall(delta->relation, DeltaKind::kDelete) ==
             MaintVerdict::kSource)) {
      return Status::Ok();
    }
  }
  std::vector<std::string> bases;
  for (const CanonicalDelta* delta : deltas) {
    bases.push_back(delta->relation);
  }
  return Status::Internal(
      StrCat("certificate violation: integration of deltas on {",
             Join(bases, ", "), "} performed ", stats.source_reads,
             " source read(s), but every affected (base, delta-kind) is "
             "certified SELF or COMPLEMENT"));
}

Result<Relation> Warehouse::AnswerQuery(const ExprRef& query,
                                        EvalStats* stats,
                                        const CancelToken* cancel) const {
  return AnswerQueryAt(PinSnapshot(), query, stats, cancel);
}

Result<Relation> Warehouse::AnswerQueryAt(const SnapshotHandle& snapshot,
                                          const ExprRef& query,
                                          EvalStats* stats,
                                          const CancelToken* cancel) const {
  // Fail before rewriting or binding anything when the token has already
  // fired (e.g. the deadline elapsed while queued for admission).
  if (cancel != nullptr) {
    DWC_RETURN_IF_ERROR(cancel->Check());
  }
  if (!snapshot.valid()) {
    return Status::FailedPrecondition(
        "snapshot handle is empty (released, moved-from, or pinned before "
        "the warehouse published its first epoch)");
  }
  if (snapshot.shed()) {
    return Status::Aborted(
        StrCat("snapshot of epoch ", snapshot.epoch(),
               " was shed by the epoch-lag backpressure policy (current "
               "epoch is ", epochs_->current_epoch(), "); re-pin and retry"));
  }
  DWC_ASSIGN_OR_RETURN(ExprRef translated, PlanQueryAt(snapshot, query));
  Environment env;
  for (const auto& [name, rel] : snapshot.relations()) {
    env.Bind(name, rel.get());
  }
  // On a token-triggered failure everything unwinds cleanly: the snapshot
  // pin is RAII-released by the caller's handle, the partial Relation is
  // destroyed here, and the subplan cache saw only completed subplans
  // (EvalInternal inserts strictly after a successful evaluation).
  Evaluator evaluator = MakeEvaluator(&env, cancel);
  Result<Relation> result = evaluator.Materialize(*translated);
  if (stats != nullptr) {
    *stats = evaluator.stats();
  }
  return result;
}

Result<ExprRef> Warehouse::PlanQueryAt(const SnapshotHandle& snapshot,
                                       const ExprRef& query) const {
  // Like TranslateQuery, but aggregate views are additionally addressable.
  // Name checks and schema resolution go through the snapshot (not the
  // live aggregate map): the writer may be registering views concurrently.
  for (const std::string& name : query->ReferencedNames()) {
    if (spec_->FindInverse(name) == nullptr &&
        spec_->FindWarehouseSchema(name) == nullptr &&
        snapshot.Find(name) == nullptr) {
      return Status::NotFound(
          StrCat("query references '", name,
                 "', which is neither a base relation, a warehouse view, "
                 "nor an aggregate view"));
    }
  }
  SchemaResolver warehouse_resolver = spec_->WarehouseResolver();
  SchemaResolver resolver = [&snapshot, &warehouse_resolver](
                                const std::string& name) -> const Schema* {
    const Schema* schema = warehouse_resolver(name);
    if (schema != nullptr) {
      return schema;
    }
    const Relation* rel = snapshot.Find(name);
    return rel == nullptr ? nullptr : &rel->schema();
  };
  // The plan is interned: a repeated query against an unchanged warehouse
  // recycles every one of its subplans from the cache (the (uid, version)
  // snapshot keys make cached results epoch-correct: a hit can only come
  // from the exact relation versions this snapshot pinned).
  return PlanTranslation(query, *spec_, resolver);
}

Status Warehouse::ResetFromSources(const Database& sources) {
  return Rebuild(Environment::FromDatabase(sources), nullptr);
}

Result<Relation> Warehouse::ReconstructBase(const std::string& name,
                                            EvalStats* stats) const {
  const ExprRef* inverse = spec_->FindInverse(name);
  if (inverse == nullptr) {
    return Status::NotFound(
        StrCat("base relation '", name, "' has no inverse expression"));
  }
  Environment env = Env();
  Evaluator evaluator = MakeEvaluator(&env);
  DWC_ASSIGN_OR_RETURN(Relation rel, evaluator.Materialize(**inverse));
  if (stats != nullptr) {
    stats->MergeFrom(evaluator.stats());
  }
  const Schema* declared = spec_->catalog().FindSchema(name);
  if (declared != nullptr && !(rel.schema() == *declared)) {
    DWC_ASSIGN_OR_RETURN(rel, rel.AlignTo(*declared));
  }
  return rel;
}

Result<Database> Warehouse::ReconstructSources(EvalStats* stats) const {
  Database bases(spec_->catalog_ptr());
  for (const auto& [base, inverse] : spec_->inverses()) {
    (void)inverse;
    DWC_ASSIGN_OR_RETURN(Relation rel, ReconstructBase(base, stats));
    DWC_RETURN_IF_ERROR(bases.AddRelation(base, std::move(rel)));
  }
  return bases;
}

Status CheckConsistency(const Warehouse& warehouse, const Database& sources) {
  Environment env = Environment::FromDatabase(sources);
  std::vector<std::unique_ptr<Relation>> materialized;
  for (const ViewDef& view : warehouse.spec().AllWarehouseViews()) {
    Evaluator evaluator(&env);
    Result<Relation> expected = evaluator.Materialize(*view.expr);
    if (!expected.ok()) {
      return expected.status();
    }
    const Relation* actual = warehouse.FindRelation(view.name);
    if (actual == nullptr) {
      return Status::Internal(
          StrCat("warehouse relation '", view.name, "' missing"));
    }
    if (!actual->SameContentAs(*expected)) {
      return Status::Internal(StrCat(
          "warehouse relation '", view.name, "' is stale:\n  expected ",
          expected->ToString(), "\n  actual   ", actual->ToString()));
    }
    materialized.push_back(
        std::make_unique<Relation>(std::move(expected).value()));
    env.Bind(view.name, materialized.back().get());
  }
  return Status::Ok();
}

}  // namespace dwc
