// Property: a governed query that fails — deadline, tuple budget, or
// external cancel — is hygienic. Across random PSJ warehouses, random
// queries and interleaved deltas, every aborted/timed-out/over-budget
// AnswerQuery leaves (1) zero live snapshot pins, (2) retired-epoch count
// unchanged (no leaked pins blocking reclamation), (3) the warehouse state
// digest untouched, and (4) the subplan cache unpoisoned: the same query
// re-run unbounded afterwards returns exactly the ground-truth answer
// (evaluated directly against the source database — Theorem 3.1's other
// side).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "algebra/environment.h"
#include "algebra/evaluator.h"
#include "algebra/interner.h"
#include "algebra/subplan_cache.h"
#include "core/warehouse_spec.h"
#include "runtime/cancel.h"
#include "testing/property_util.h"
#include "testing/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "warehouse/source.h"
#include "warehouse/warehouse.h"
#include "workload/random_db.h"
#include "workload/random_views.h"
#include "workload/update_stream.h"

namespace dwc {
namespace {

using ::dwc::testing::CatalogShape;
using ::dwc::testing::MakeCatalog;

uint64_t Fingerprint(const Warehouse& warehouse) {
  return StateDigest(warehouse.state()).Combined();
}

class CancellationHygienePropertyTest
    : public ::testing::TestWithParam<CatalogShape> {
 protected:
  // Asserts the post-failure invariants: no pins, no retired-epoch growth,
  // state digest unchanged.
  void ExpectHygienic(const Warehouse& warehouse, uint64_t state_before,
                      uint64_t retired_before, const Status& failure) {
    EpochStats stats = warehouse.epoch_stats();
    EXPECT_EQ(stats.live_snapshots, 0u)
        << "a failed query leaked its snapshot pin: "
        << failure.ToString();
    EXPECT_EQ(stats.retired_epochs, retired_before)
        << "a failed query left epochs unreclaimable: "
        << failure.ToString();
    EXPECT_EQ(Fingerprint(warehouse), state_before)
        << "a failed query mutated warehouse state: " << failure.ToString();
  }
};

TEST_P(CancellationHygienePropertyTest, FailedQueriesLeaveNoTrace) {
  std::shared_ptr<Catalog> catalog = MakeCatalog(GetParam());
  std::vector<std::string> relations = catalog->RelationNames();

  // Round 2 evaluates with pushdown off, so its left-deep join chains are
  // joined in one pass and a token can fire in the middle of one.
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(StrCat("round ", round));
    Rng rng(9100 + 53 * static_cast<uint64_t>(GetParam()) +
            static_cast<uint64_t>(round));
    Result<std::vector<ViewDef>> views =
        GenerateRandomPsjViews(*catalog, &rng);
    DWC_ASSERT_OK(views);
    Result<WarehouseSpec> spec = SpecifyWarehouse(catalog, *views);
    DWC_ASSERT_OK(spec);
    auto spec_ptr = std::make_shared<WarehouseSpec>(std::move(spec).value());
    Result<Database> db = GenerateRandomDatabase(catalog, &rng);
    DWC_ASSERT_OK(db);
    Source source(*db);
    Result<Warehouse> warehouse = Warehouse::Load(spec_ptr, source.db());
    DWC_ASSERT_OK(warehouse);
    // Cache on: a poisoned entry would surface in the re-run check below.
    EvaluatorOptions options;
    options.cache_budget_tuples = 1 << 16;
    options.enable_pushdown = round != 2;
    warehouse->SetEvaluatorOptions(options);

    for (int step = 0; step < 12; ++step) {
      SCOPED_TRACE(StrCat("step ", step));
      Result<ExprRef> query = GenerateRandomQuery(*catalog, &rng);
      DWC_ASSERT_OK(query);

      // Ground truth: the query evaluated directly against the source.
      Environment truth_env = Environment::FromDatabase(source.db());
      Result<Relation> truth = EvalExpr(**query, truth_env);
      DWC_ASSERT_OK(truth);
      const uint64_t truth_digest = RelationDigest(*truth);

      const uint64_t state_before = Fingerprint(*warehouse);
      const uint64_t retired_before = warehouse->epoch_stats().retired_epochs;

      // Adversarial tokens. Each must either fail with its governed code —
      // and then hygienically — or, for the budget, legitimately fit.
      {
        auto token =
            CancelToken::WithDeadline(std::chrono::milliseconds(-1));
        Result<Relation> answer =
            warehouse->AnswerQuery(*query, nullptr, token.get());
        ASSERT_FALSE(answer.ok()) << "expired deadline served a query";
        EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
        ExpectHygienic(*warehouse, state_before, retired_before,
                       answer.status());
      }
      {
        auto token = CancelToken::WithBudget(1 + rng.Below(4));
        Result<Relation> answer =
            warehouse->AnswerQuery(*query, nullptr, token.get());
        if (!answer.ok()) {
          EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted)
              << answer.status().ToString();
          ExpectHygienic(*warehouse, state_before, retired_before,
                         answer.status());
        } else {
          // Small plans can fit a tiny budget; then the answer must be
          // the real one.
          EXPECT_EQ(RelationDigest(*answer), truth_digest);
        }
      }
      {
        auto token = std::make_shared<CancelToken>();
        token->Cancel();
        Result<Relation> answer =
            warehouse->AnswerQuery(*query, nullptr, token.get());
        ASSERT_FALSE(answer.ok()) << "cancelled token served a query";
        EXPECT_EQ(answer.status().code(), StatusCode::kAborted);
        ExpectHygienic(*warehouse, state_before, retired_before,
                       answer.status());
      }

      // The unbounded re-run answers from the same (possibly cached)
      // subplans the failed attempts touched: it must match ground truth.
      Result<Relation> answer = warehouse->AnswerQuery(*query);
      DWC_ASSERT_OK(answer);
      EXPECT_EQ(RelationDigest(*answer), truth_digest)
          << "post-failure answer diverged from ground truth";

      // Advance the state between probes so later rounds exercise fresh
      // epochs and cache versions.
      const std::string& relation = relations[rng.Below(relations.size())];
      Result<UpdateOp> op = GenerateRandomUpdate(source.db(), relation, &rng);
      DWC_ASSERT_OK(op);
      Result<CanonicalDelta> delta = source.Apply(*op);
      DWC_ASSERT_OK(delta);
      if (!delta->empty()) {
        DWC_ASSERT_OK(warehouse->Integrate(*delta));
      }
    }
    DWC_ASSERT_OK(CheckConsistency(*warehouse, source.db()));
  }
}

// A chain joined in one pass (pushdown off) that outgrows its tuple budget
// or outlives its deadline fails with that code in the middle of the walk,
// returns no rows, and stores nothing in the subplan cache: the same chain
// re-run unbounded gives the whole answer.
TEST(CancellationHygieneChainTest, MidChainFailureLeavesNoResult) {
  Schema a_schema({{"a", ValueType::kInt}, {"x", ValueType::kInt}});
  Schema b_schema({{"a", ValueType::kInt}, {"y", ValueType::kInt}});
  Schema c_schema({{"z", ValueType::kInt}});
  Relation a(a_schema);
  Relation b(b_schema);
  Relation c(c_schema);
  for (int64_t i = 0; i < 200; ++i) {
    a.Insert(Tuple({Value::Int(i % 50), Value::Int(i)}));
  }
  for (int64_t i = 0; i < 50; ++i) {
    b.Insert(Tuple({Value::Int(i), Value::Int(-i)}));
  }
  for (int64_t i = 0; i < 500; ++i) {
    c.Insert(Tuple({Value::Int(i)}));
  }
  Environment env;
  env.Bind("A", &a);
  env.Bind("B", &b);
  env.Bind("C", &c);
  ExprInterner interner;
  ExprRef chain = interner.Intern(Expr::Join(
      Expr::Join(Expr::Base("A"), Expr::Base("B")), Expr::Base("C")));
  SubplanCache cache;
  cache.set_budget(1 << 20);
  EvaluatorOptions options;
  options.enable_pushdown = false;
  options.cache_budget_tuples = 1 << 20;

  {
    auto token = CancelToken::WithBudget(5000);
    options.cancel = token.get();
    Evaluator evaluator(&env, options, &interner, &cache);
    Result<Relation> out = evaluator.Materialize(*chain);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
    // The operands are bound relations, which charge nothing: the charged
    // rows are the chain's own, so it failed mid-walk.
    EXPECT_GT(token->charged_tuples(), 5000u);
  }
  {
    auto token = CancelToken::WithDeadline(std::chrono::milliseconds(1));
    options.cancel = token.get();
    Evaluator evaluator(&env, options, &interner, &cache);
    Result<Relation> out = evaluator.Materialize(*chain);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(cache.entries(), 0u);

  options.cancel = nullptr;
  Evaluator evaluator(&env, options, &interner, &cache);
  Result<Relation> out = evaluator.Materialize(*chain);
  DWC_ASSERT_OK(out);
  EXPECT_EQ(out->size(), 200u * 500u);
  EXPECT_EQ(out->schema().ToString(), "(a INT, x INT, y INT, z INT)");
}

INSTANTIATE_TEST_SUITE_P(Shapes, CancellationHygienePropertyTest,
                         ::testing::Values(CatalogShape::kChain,
                                           CatalogShape::kKeyed,
                                           CatalogShape::kKeyedInds),
                         [](const ::testing::TestParamInfo<CatalogShape>&
                                info) {
                           return ::dwc::testing::CatalogShapeName(
                               info.param);
                         });

}  // namespace
}  // namespace dwc
