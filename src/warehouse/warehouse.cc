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
    DWC_ASSIGN_OR_RETURN(warehouse.plan_,
                         DeriveMaintenancePlan(*warehouse.spec_));
    // Cross-expression CSE over the plan: shared structure (each R̂i, the
    // inverse expressions, repeated delta-semijoins) collapses onto the
    // spec's canonical DAG, so the subplan cache can recycle results
    // between maintenance rounds and translated queries.
    warehouse.plan_.Canonicalize(warehouse.spec_->interner().get());
  }
  Environment env = Environment::FromDatabase(sources);
  DWC_RETURN_IF_ERROR(warehouse.MaterializeFrom(env));
  // Epoch 1: the loaded state. Every later committed transition publishes
  // the next epoch; readers pin whatever is current when they arrive.
  warehouse.epochs_->Publish(warehouse.CurrentVersions());
  return warehouse;
}

void Warehouse::CopyFrom(const Warehouse& other) {
  spec_ = other.spec_;
  strategy_ = other.strategy_;
  plan_ = other.plan_;
  state_ = other.state_;
  aggregates_ = other.aggregates_;
  aggregate_delta_cache_ = other.aggregate_delta_cache_;
  transaction_plans_ = other.transaction_plans_;
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

Status Warehouse::MaterializeFrom(const Environment& base_env) {
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
  // Whole-map swap: relation objects referenced by published epochs stay
  // alive through their shared slots, so pinned readers are unaffected.
  state_ = std::move(fresh);
  return Status::Ok();
}

Status Warehouse::BeginIntegration(
    const std::vector<const CanonicalDelta*>& deltas) {
  hook_step_ = 0;
  ResetIntegrateStats();
  for (const CanonicalDelta* delta : deltas) {
    if (!spec_->catalog().HasRelation(delta->relation)) {
      return Status::NotFound(StrCat("delta targets unknown base relation '",
                                     delta->relation, "'"));
    }
    if (!validate_deltas_ || delta->empty() ||
        spec_->FindInverse(delta->relation) == nullptr) {
      continue;
    }
    // Canonical-form check against the reconstructed base: inserts must be
    // new, deletes must be present. Rejecting here keeps every later phase
    // infallible-by-construction on the delta's account.
    DWC_ASSIGN_OR_RETURN(Relation base, ReconstructBase(delta->relation));
    DWC_ASSIGN_OR_RETURN(Relation inserts,
                         delta->inserts.AlignTo(base.schema()));
    for (const Tuple& tuple : inserts.tuples()) {
      if (base.Contains(tuple)) {
        return Status::InvalidArgument(
            StrCat("non-canonical delta for '", delta->relation,
                   "': insert ", tuple.ToString(), " is already present"));
      }
    }
    DWC_ASSIGN_OR_RETURN(Relation deletes,
                         delta->deletes.AlignTo(base.schema()));
    for (const Tuple& tuple : deletes.tuples()) {
      if (!base.Contains(tuple)) {
        return Status::InvalidArgument(
            StrCat("non-canonical delta for '", delta->relation,
                   "': delete ", tuple.ToString(), " is not present"));
      }
    }
  }
  return Status::Ok();
}

Status Warehouse::Integrate(const CanonicalDelta& delta,
                            const Source* source) {
  DWC_RETURN_IF_ERROR(BeginIntegration({&delta}));
  Status status = Status::Internal("unknown strategy");
  switch (strategy_) {
    case MaintenanceStrategy::kIncremental:
      status = IntegrateIncremental(delta);
      break;
    case MaintenanceStrategy::kRecomputeFromInverse:
      status = IntegrateRecompute({&delta});
      break;
    case MaintenanceStrategy::kQuerySource:
      if (source == nullptr) {
        return Status::InvalidArgument(
            "kQuerySource maintenance needs a live Source");
      }
      status = IntegrateQuerySource(*source);
      break;
  }
  DWC_RETURN_IF_ERROR(status);
  return CheckCertificates({&delta});
}

Status Warehouse::IntegrateTransaction(
    const std::vector<CanonicalDelta>& deltas, const Source* source) {
  std::vector<const CanonicalDelta*> nonempty;
  std::set<std::string> bases;
  for (const CanonicalDelta& delta : deltas) {
    if (delta.empty()) {
      continue;
    }
    if (!bases.insert(delta.relation).second) {
      return Status::InvalidArgument(
          StrCat("transaction carries two deltas for '", delta.relation,
                 "'; merge them first (Source::ApplyTransaction does)"));
    }
    nonempty.push_back(&delta);
  }
  if (nonempty.empty()) {
    return Status::Ok();
  }
  DWC_RETURN_IF_ERROR(BeginIntegration(nonempty));
  Status status = Status::Internal("unknown strategy");
  switch (strategy_) {
    case MaintenanceStrategy::kIncremental: {
      if (nonempty.size() == 1) {
        status = IntegrateIncremental(*nonempty[0]);
        break;
      }
      std::string key = Join(bases, ",");
      auto it = transaction_plans_.find(key);
      if (it == transaction_plans_.end()) {
        Result<std::map<std::string, DeltaPair>> plan =
            DeriveTransactionPlan(*spec_, bases);
        if (!plan.ok()) {
          return plan.status();
        }
        for (auto& [relation, pair] : *plan) {
          (void)relation;
          pair.plus = spec_->interner()->Intern(pair.plus);
          pair.minus = spec_->interner()->Intern(pair.minus);
        }
        it = transaction_plans_.emplace(key, std::move(plan).value()).first;
      }
      status = ApplyPlanned(it->second, nonempty);
      break;
    }
    case MaintenanceStrategy::kRecomputeFromInverse:
      status = IntegrateRecompute(nonempty);
      break;
    case MaintenanceStrategy::kQuerySource:
      if (source == nullptr) {
        return Status::InvalidArgument(
            "kQuerySource maintenance needs a live Source");
      }
      status = IntegrateQuerySource(*source);
      break;
  }
  DWC_RETURN_IF_ERROR(status);
  return CheckCertificates(nonempty);
}

Status Warehouse::IntegrateIncremental(const CanonicalDelta& delta) {
  std::map<std::string, DeltaPair> per_relation;
  for (const auto& [relation, per_base] : plan_.entries()) {
    auto it = per_base.find(delta.relation);
    if (it != per_base.end()) {
      per_relation.emplace(relation, it->second);
    }
  }
  return ApplyPlanned(per_relation, {&delta});
}

Status Warehouse::ApplyPlanned(
    const std::map<std::string, DeltaPair>& per_relation_plan,
    const std::vector<const CanonicalDelta*>& deltas) {
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
  pending.reserve(per_relation_plan.size());
  Evaluator evaluator = MakeEvaluator(&env);
  auto evaluate = [&]() -> Status {
    for (const auto& [relation, pair] : per_relation_plan) {
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
  MergeIntegrateStats(evaluator.stats());
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
        MergeIntegrateStats(agg_evaluator.stats());
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

Status Warehouse::ReinitializeAggregates() {
  Environment env = Env();
  for (auto& [name, view] : aggregates_) {
    (void)name;
    DWC_RETURN_IF_ERROR(view.Initialize(env));
  }
  return Status::Ok();
}

Status Warehouse::IntegrateRecompute(
    const std::vector<const CanonicalDelta*>& deltas) {
  // Reconstruct the base state through W^-1, apply the deltas, re-derive.
  // All of this happens on a local copy, so failures before the state swap
  // leave the warehouse untouched.
  DWC_RETURN_IF_ERROR(HookStep());
  Result<Database> bases = ReconstructSources();
  if (!bases.ok()) {
    return bases.status();
  }
  for (const CanonicalDelta* delta : deltas) {
    Relation* rel = bases->FindMutableRelation(delta->relation);
    if (rel == nullptr) {
      return Status::NotFound(
          StrCat("unknown base relation '", delta->relation, "'"));
    }
    Result<Relation> deletes = delta->deletes.AlignTo(rel->schema());
    if (!deletes.ok()) {
      return deletes.status();
    }
    for (const Tuple& tuple : deletes->tuples()) {
      rel->Erase(tuple);
    }
    Result<Relation> inserts = delta->inserts.AlignTo(rel->schema());
    if (!inserts.ok()) {
      return inserts.status();
    }
    for (const Tuple& tuple : inserts->tuples()) {
      rel->Insert(tuple);
    }
  }
  Environment env = Environment::FromDatabase(*bases);
  if (aggregates_.empty()) {
    // MaterializeFrom builds the new state fully before swapping, so a
    // failure leaves the old state in place.
    DWC_RETURN_IF_ERROR(MaterializeFrom(env));
    DWC_RETURN_IF_ERROR(HookStep());
    PublishCurrent();
    return Status::Ok();
  }
  // Aggregate re-init installs fresh tables; snapshot live state for
  // rollback.
  Database old_state = state_;
  std::map<std::string, AggregateView> old_aggregates = aggregates_;
  DWC_RETURN_IF_ERROR(MaterializeFrom(env));
  // A crash between the swap and aggregate re-init leaves torn state the
  // caller discards (checkpoint + journal recovery) — and, per the epoch
  // contract, publishes nothing: pinned readers keep the previous epoch.
  DWC_RETURN_IF_ERROR(HookStep());
  Status status = ReinitializeAggregates();
  if (!status.ok()) {
    state_ = std::move(old_state);
    aggregates_ = std::move(old_aggregates);
    return status;
  }
  DWC_RETURN_IF_ERROR(HookStep());
  PublishCurrent();
  return Status::Ok();
}

Status Warehouse::CheckCertificates(
    const std::vector<const CanonicalDelta*>& deltas) const {
  const EvalStats stats = last_integrate_stats();
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

Status Warehouse::IntegrateQuerySource(const Source& source) {
  // The traditional integrator: recompute every view by querying the source
  // databases (and the complements too, so state stays comparable).
  Environment env;  // Views bound as they materialize; bases via queries.
  Database fresh;
  // Pull every base relation the warehouse definitions mention.
  std::set<std::string> needed;
  for (const ViewDef& view : spec_->AllWarehouseViews()) {
    for (const std::string& name : view.expr->ReferencedNames()) {
      if (spec_->catalog().HasRelation(name)) {
        needed.insert(name);
      }
    }
  }
  Database base_copy;
  for (const std::string& name : needed) {
    Result<Relation> rel = source.AnswerQuery(Expr::Base(name));
    if (!rel.ok()) {
      return rel.status();
    }
    DWC_RETURN_IF_ERROR(base_copy.AddRelation(name, std::move(rel).value()));
  }
  env.BindDatabase(base_copy);
  // These bindings came off the wire from the source, not from the
  // warehouse store: tag them so every resolution lands in source_reads.
  for (const std::string& name : needed) {
    env.MarkSource(name);
  }
  for (const ViewDef& view : spec_->AllWarehouseViews()) {
    Evaluator evaluator = MakeEvaluator(&env);
    Result<std::shared_ptr<const Relation>> rel = evaluator.Eval(*view.expr);
    MergeIntegrateStats(evaluator.stats());
    if (!rel.ok()) {
      return rel.status();
    }
    // Deep-copied for the reason MaterializeFrom gives.
    DWC_RETURN_IF_ERROR(fresh.AddRelation(view.name, (*rel)->DeepCopy()));
    env.Bind(view.name, fresh.FindRelation(view.name));
  }
  DWC_RETURN_IF_ERROR(HookStep());
  if (aggregates_.empty()) {
    state_ = std::move(fresh);
    DWC_RETURN_IF_ERROR(HookStep());
    PublishCurrent();
    return Status::Ok();
  }
  Database old_state = std::move(state_);
  std::map<std::string, AggregateView> old_aggregates = aggregates_;
  state_ = std::move(fresh);
  Status status = ReinitializeAggregates();
  if (!status.ok()) {
    state_ = std::move(old_state);
    aggregates_ = std::move(old_aggregates);
    return status;
  }
  DWC_RETURN_IF_ERROR(HookStep());
  PublishCurrent();
  return Status::Ok();
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
  Environment env = Environment::FromDatabase(sources);
  if (aggregates_.empty()) {
    DWC_RETURN_IF_ERROR(MaterializeFrom(env));
    PublishCurrent();
    return Status::Ok();
  }
  Database old_state = state_;
  std::map<std::string, AggregateView> old_aggregates = aggregates_;
  DWC_RETURN_IF_ERROR(MaterializeFrom(env));
  Status status = ReinitializeAggregates();
  if (!status.ok()) {
    state_ = std::move(old_state);
    aggregates_ = std::move(old_aggregates);
    return status;
  }
  PublishCurrent();
  return Status::Ok();
}

Result<Relation> Warehouse::ReconstructBase(const std::string& name) const {
  const ExprRef* inverse = spec_->FindInverse(name);
  if (inverse == nullptr) {
    return Status::NotFound(
        StrCat("base relation '", name, "' has no inverse expression"));
  }
  Environment env = Env();
  Evaluator evaluator = MakeEvaluator(&env);
  DWC_ASSIGN_OR_RETURN(Relation rel, evaluator.Materialize(**inverse));
  const Schema* declared = spec_->catalog().FindSchema(name);
  if (declared != nullptr && !(rel.schema() == *declared)) {
    DWC_ASSIGN_OR_RETURN(rel, rel.AlignTo(*declared));
  }
  return rel;
}

Result<Database> Warehouse::ReconstructSources() const {
  Database bases(spec_->catalog_ptr());
  for (const auto& [base, inverse] : spec_->inverses()) {
    (void)inverse;
    DWC_ASSIGN_OR_RETURN(Relation rel, ReconstructBase(base));
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
