#include "parser/interpreter.h"

#include "algebra/environment.h"
#include "algebra/evaluator.h"
#include "algebra/schema_inference.h"
#include "parser/parser.h"
#include "util/checksum.h"
#include "util/string_util.h"

namespace dwc {

const ViewDef* ScriptContext::FindView(const std::string& name) const {
  for (const ViewDef& view : views) {
    if (view.name == name) {
      return &view;
    }
  }
  return nullptr;
}

Result<Relation> ScriptContext::Evaluate(const ExprRef& expr) const {
  // Materialize every declared view first (views may reference earlier
  // views), then evaluate the expression against db + views.
  Environment env = Environment::FromDatabase(db);
  std::vector<std::unique_ptr<Relation>> materialized;
  for (const ViewDef& view : views) {
    Evaluator evaluator(&env);
    DWC_ASSIGN_OR_RETURN(Relation rel, evaluator.Materialize(*view.expr));
    materialized.push_back(std::make_unique<Relation>(std::move(rel)));
    env.Bind(view.name, materialized.back().get());
  }
  Evaluator evaluator(&env);
  return evaluator.Materialize(*expr);
}

namespace {

Status CheckTupleAgainstSchema(const Tuple& tuple, const Schema& schema,
                               const std::string& relation) {
  if (tuple.size() != schema.size()) {
    return Status::InvalidArgument(
        StrCat("tuple ", tuple.ToString(), " has ", tuple.size(),
               " values but ", relation, " has ", schema.size(),
               " attributes"));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple.at(i).is_null()) {
      continue;  // NULL is allowed in any domain.
    }
    ValueType expected = schema.attribute(i).type;
    ValueType actual = tuple.at(i).type();
    bool numeric_ok =
        (expected == ValueType::kDouble && actual == ValueType::kInt);
    if (actual != expected && !numeric_ok) {
      return Status::InvalidArgument(
          StrCat("value ", tuple.at(i).ToString(), " has type ",
                 ValueTypeName(actual), " but attribute '",
                 schema.attribute(i).name, "' of ", relation, " has type ",
                 ValueTypeName(expected)));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<ScriptContext> RunScript(std::string_view script) {
  DWC_ASSIGN_OR_RETURN(std::vector<Statement> statements,
                       ParseProgram(script));
  ScriptContext context;

  // Resolver covering base relations and already-declared views.
  auto resolve_all = [&context](const std::string& name) -> const Schema* {
    const Schema* schema = context.catalog->FindSchema(name);
    if (schema != nullptr) {
      return schema;
    }
    return nullptr;
  };
  // View schemas are cached as they are declared.
  std::map<std::string, Schema> view_schemas;
  auto resolver = [&](const std::string& name) -> const Schema* {
    const Schema* base = resolve_all(name);
    if (base != nullptr) {
      return base;
    }
    auto it = view_schemas.find(name);
    return it == view_schemas.end() ? nullptr : &it->second;
  };

  // Running RelationDigest per relation a DELTA record has verified:
  // seeded once from the relation, then kept current by XOR-ing in the
  // TupleDigest of every effective insert and erase (the digest is an
  // XOR-fold), so each record costs O(|delta|). A plain INSERT/DELETE drops
  // its relation's entry; the next DELTA reseeds it.
  std::map<std::string, uint64_t> running_digests;

  for (Statement& statement : statements) {
    if (auto* create = std::get_if<CreateTableStmt>(&statement)) {
      DWC_RETURN_IF_ERROR(
          context.catalog->AddRelation(create->name, create->schema));
      if (create->key.has_value()) {
        DWC_RETURN_IF_ERROR(
            context.catalog->AddKey(create->name, *create->key));
      }
      DWC_RETURN_IF_ERROR(
          context.db.AddEmptyRelation(create->name, create->schema));
    } else if (auto* inclusion = std::get_if<InclusionStmt>(&statement)) {
      DWC_RETURN_IF_ERROR(context.catalog->AddInclusion(inclusion->ind));
    } else if (auto* view = std::get_if<ViewStmt>(&statement)) {
      if (resolver(view->name) != nullptr) {
        return Status::AlreadyExists(
            StrCat("name '", view->name, "' already declared"));
      }
      DWC_ASSIGN_OR_RETURN(Schema schema, InferSchema(*view->expr, resolver));
      view_schemas.emplace(view->name, std::move(schema));
      context.views.push_back(ViewDef{view->name, view->expr});
    } else if (auto* insert = std::get_if<InsertStmt>(&statement)) {
      Relation* rel = context.db.FindMutableRelation(insert->relation);
      if (rel == nullptr) {
        return Status::NotFound(
            StrCat("relation '", insert->relation, "' not declared"));
      }
      for (Tuple& tuple : insert->tuples) {
        DWC_RETURN_IF_ERROR(
            CheckTupleAgainstSchema(tuple, rel->schema(), insert->relation));
        rel->Insert(std::move(tuple));
      }
      running_digests.erase(insert->relation);
    } else if (auto* del = std::get_if<DeleteStmt>(&statement)) {
      Relation* rel = context.db.FindMutableRelation(del->relation);
      if (rel == nullptr) {
        return Status::NotFound(
            StrCat("relation '", del->relation, "' not declared"));
      }
      for (const Tuple& tuple : del->tuples) {
        DWC_RETURN_IF_ERROR(
            CheckTupleAgainstSchema(tuple, rel->schema(), del->relation));
        rel->Erase(tuple);
      }
      running_digests.erase(del->relation);
    } else if (auto* delta = std::get_if<DeltaStmt>(&statement)) {
      // Journal replay: re-apply the enveloped delta (deletes first, like
      // the integrator) and re-verify the piggybacked post-state digest —
      // a damaged or truncated journal fails loudly instead of silently
      // rebuilding a diverged state.
      Relation* rel = context.db.FindMutableRelation(delta->relation);
      if (rel == nullptr) {
        return Status::NotFound(
            StrCat("relation '", delta->relation, "' not declared"));
      }
      auto [running, unseeded] =
          running_digests.try_emplace(delta->relation, 0);
      if (unseeded) {
        running->second = RelationDigest(*rel);
      }
      uint64_t& digest = running->second;
      for (const Tuple& tuple : delta->deletes) {
        DWC_RETURN_IF_ERROR(
            CheckTupleAgainstSchema(tuple, rel->schema(), delta->relation));
        if (rel->Erase(tuple)) {
          digest ^= TupleDigest(tuple);
        }
      }
      for (Tuple& tuple : delta->inserts) {
        DWC_RETURN_IF_ERROR(
            CheckTupleAgainstSchema(tuple, rel->schema(), delta->relation));
        uint64_t tuple_digest = TupleDigest(tuple);
        if (rel->Insert(std::move(tuple))) {
          digest ^= tuple_digest;
        }
      }
      if (delta->sequence != 0 && digest != delta->state_digest) {
        return Status::FailedPrecondition(
            StrCat("journal replay diverged: after DELTA ", delta->relation,
                   " seq ", delta->sequence, " (epoch ", delta->epoch,
                   " from '", delta->source_id, "') the relation digest is ",
                   DigestToHex(digest), ", journal says ",
                   DigestToHex(delta->state_digest)));
      }
    } else if (auto* query = std::get_if<QueryStmt>(&statement)) {
      DWC_ASSIGN_OR_RETURN(Relation result, context.Evaluate(query->expr));
      context.query_results.push_back(std::move(result));
    } else if (auto* summary = std::get_if<SummaryStmt>(&statement)) {
      // Validate the definition (schema inference + spec checks) without
      // materializing it; the warehouse layer owns the state.
      DWC_ASSIGN_OR_RETURN(AggregateView unused,
                           AggregateView::Create(summary->def, resolver));
      (void)unused;
      context.summaries.push_back(summary->def);
    }
  }
  return context;
}

}  // namespace dwc
