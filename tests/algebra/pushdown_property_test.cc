// Differential test for the semijoin-pushdown evaluator: joins and
// differences where one side is small push its keys down as a filter
// through the same operator dispatch that evaluates unfiltered plans;
// their results must be identical to a reference evaluator without any
// pushdown, in content and in column order. Random expressions over random
// states under every evaluator setting, plus hand-picked shapes that
// exercise each pushdown rule.

#include <gtest/gtest.h>

#include <memory>

#include "algebra/evaluator.h"
#include "algebra/interner.h"
#include "algebra/subplan_cache.h"
#include "parser/parser.h"
#include "runtime/cancel.h"
#include "testing/property_util.h"
#include "testing/reference_eval.h"
#include "testing/test_util.h"
#include "util/rng.h"
#include "workload/random_db.h"
#include "workload/random_views.h"

namespace dwc {
namespace {

using ::dwc::testing::CatalogShape;
using ::dwc::testing::MakeCatalog;
using ::dwc::testing::ReferenceEval;

// `expr` with the operands of every join and union swapped: the same
// answer in another column order, and to the interner a commuted twin of
// `expr` whose cached result must be realigned before it is reused.
ExprRef Commuted(const ExprRef& expr) {
  switch (expr->kind()) {
    case Expr::Kind::kJoin:
      return Expr::Join(Commuted(expr->right()), Commuted(expr->left()));
    case Expr::Kind::kUnion:
      return Expr::Union(Commuted(expr->right()), Commuted(expr->left()));
    case Expr::Kind::kDifference:
      return Expr::Difference(Commuted(expr->left()), Commuted(expr->right()));
    case Expr::Kind::kSelect:
      return Expr::Select(expr->predicate(), Commuted(expr->child()));
    case Expr::Kind::kProject:
      return Expr::Project(expr->attrs(), Commuted(expr->child()));
    case Expr::Kind::kRename:
      return Expr::Rename(expr->renames(), Commuted(expr->child()));
    case Expr::Kind::kBase:
    case Expr::Kind::kEmpty:
      return expr;
  }
  return expr;
}

class PushdownPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PushdownPropertyTest, EvaluatorMatchesReferenceOnRandomExprs) {
  Rng rng(GetParam());
  for (CatalogShape shape : {CatalogShape::kChain, CatalogShape::kKeyedInds}) {
    std::shared_ptr<Catalog> catalog = MakeCatalog(shape);
    Result<Database> db = GenerateRandomDatabase(catalog, &rng);
    DWC_ASSERT_OK(db);
    // Add a tiny extra relation so small-vs-big pushdown cases arise often.
    Environment env = Environment::FromDatabase(*db);
    for (int round = 0; round < 40; ++round) {
      RandomQueryOptions options;
      options.max_depth = 4;
      Result<ExprRef> expr = GenerateRandomQuery(*catalog, &rng, options);
      DWC_ASSERT_OK(expr);
      Result<Relation> fast = EvalExpr(**expr, env);
      Result<Relation> reference = ReferenceEval(**expr, env);
      ASSERT_EQ(fast.ok(), reference.ok()) << (*expr)->ToString();
      if (!fast.ok()) {
        continue;
      }
      ASSERT_TRUE(testing::RelationsEqual(*fast, *reference))
          << (*expr)->ToString();
    }
  }
}

// Every evaluator setting answers a random query as the reference does, in
// content and in column order: pushdown on and off, the subplan cache off,
// under pressure (64 tuples) and roomy, over interned plans, with a cancel
// token that never fires. Each setting keeps one cache across the queries
// and answers each query, and then its commuted twin, twice, so answers
// come from fresh evaluations, recycled subplans and realigned twins.
TEST_P(PushdownPropertyTest, EverySettingMatchesReferenceColumnOrder) {
  Rng rng(GetParam());
  for (CatalogShape shape : {CatalogShape::kChain, CatalogShape::kKeyedInds}) {
    std::shared_ptr<Catalog> catalog = MakeCatalog(shape);
    Result<Database> db = GenerateRandomDatabase(catalog, &rng);
    DWC_ASSERT_OK(db);
    Environment env = Environment::FromDatabase(*db);
    ExprInterner interner;
    CancelToken never_fires;
    struct Setting {
      EvaluatorOptions options;
      std::unique_ptr<SubplanCache> cache;
    };
    std::vector<Setting> settings;
    for (bool pushdown : {true, false}) {
      for (size_t budget : {size_t{0}, size_t{64}, size_t{1} << 20}) {
        Setting setting;
        setting.options.enable_pushdown = pushdown;
        setting.options.cache_budget_tuples = budget;
        setting.options.cancel = &never_fires;
        setting.cache = std::make_unique<SubplanCache>();
        setting.cache->set_budget(budget);
        settings.push_back(std::move(setting));
      }
    }
    for (int round = 0; round < 20; ++round) {
      RandomQueryOptions query_options;
      query_options.max_depth = 4;
      Result<ExprRef> generated =
          GenerateRandomQuery(*catalog, &rng, query_options);
      DWC_ASSERT_OK(generated);
      for (const ExprRef& query : {*generated, Commuted(*generated)}) {
        ExprRef expr = interner.Intern(query);
        Result<Relation> reference = ReferenceEval(*expr, env);
        for (const Setting& setting : settings) {
          for (int pass = 0; pass < 2; ++pass) {
            SCOPED_TRACE(::testing::Message()
                         << expr->ToString() << " pushdown="
                         << setting.options.enable_pushdown << " budget="
                         << setting.options.cache_budget_tuples
                         << " pass=" << pass);
            Evaluator evaluator(&env, setting.options, &interner,
                                setting.cache.get());
            Result<Relation> out = evaluator.Materialize(*expr);
            ASSERT_EQ(out.ok(), reference.ok());
            if (!out.ok()) {
              continue;
            }
            EXPECT_TRUE(out->schema() == reference->schema())
                << out->schema().ToString() << " vs "
                << reference->schema().ToString();
            EXPECT_TRUE(testing::RelationsEqual(*out, *reference));
          }
        }
      }
    }
    EXPECT_TRUE(never_fires.Check().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PushdownPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(PushdownShapesTest, SmallDeltaJoinsBigExpression) {
  // The exact shape maintenance plans produce: tiny delta joined with a
  // union-of-projection reconstruction.
  ScriptContext context = testing::MustRun(R"(
CREATE TABLE Big(k INT, v INT);
CREATE TABLE Aux(k INT, v INT);
CREATE TABLE Tiny(k INT);
INSERT INTO Tiny VALUES (3), (500);
)");
  Relation* big = context.db.FindMutableRelation("Big");
  Relation* aux = context.db.FindMutableRelation("Aux");
  for (int64_t i = 0; i < 1000; ++i) {
    big->Insert(Tuple({Value::Int(i), Value::Int(i * 2)}));
    if (i % 2 == 0) {
      aux->Insert(Tuple({Value::Int(i), Value::Int(-i)}));
    }
  }
  Environment env = Environment::FromDatabase(context.db);
  Result<ExprRef> expr = ParseExpr(
      "Tiny join (project[k, v](Big) union Aux)");
  DWC_ASSERT_OK(expr);
  Result<Relation> out = EvalExpr(**expr, env);
  DWC_ASSERT_OK(out);
  Result<Relation> reference = ReferenceEval(**expr, env);
  DWC_ASSERT_OK(reference);
  EXPECT_TRUE(testing::RelationsEqual(*out, *reference));
  // k=3: Big yields (3,6); k=500: Big yields (500,1000), Aux yields
  // (500,-500).
  EXPECT_EQ(out->size(), 3u);
}

TEST(PushdownShapesTest, SmallLeftDifferenceAgainstBigExpression) {
  ScriptContext context = testing::MustRun(R"(
CREATE TABLE Big(k INT, v INT);
CREATE TABLE Small(k INT, v INT);
INSERT INTO Small VALUES (1, 2), (5000, 0);
)");
  Relation* big = context.db.FindMutableRelation("Big");
  for (int64_t i = 0; i < 2000; ++i) {
    big->Insert(Tuple({Value::Int(i), Value::Int(i * 2)}));
  }
  Environment env = Environment::FromDatabase(context.db);
  Result<ExprRef> expr = ParseExpr("Small minus project[k, v](Big)");
  DWC_ASSERT_OK(expr);
  Result<Relation> out = EvalExpr(**expr, env);
  DWC_ASSERT_OK(out);
  // (1,2) is in Big; (5000,0) is not.
  ASSERT_EQ(out->size(), 1u);
  EXPECT_TRUE(out->Contains(Tuple({Value::Int(5000), Value::Int(0)})));

  // The left's own tuples are the key set whether its columns are in the
  // right side's order or permuted: the filter matches columns by name.
  for (const char* text :
       {"Small minus (project[k, v](Big) union select[v > 1](Small))",
        "project[v, k](Small) minus (project[k, v](Big) union "
        "select[v > 1](Small))"}) {
    SCOPED_TRACE(text);
    Result<ExprRef> difference = ParseExpr(text);
    DWC_ASSERT_OK(difference);
    Evaluator pushed(&env);
    Result<Relation> pushed_out = pushed.Materialize(**difference);
    DWC_ASSERT_OK(pushed_out);
    EXPECT_EQ(pushed.stats().pushdown_differences, 1u);
    EvaluatorOptions plain_options;
    plain_options.enable_pushdown = false;
    Evaluator plain(&env, plain_options);
    Result<Relation> plain_out = plain.Materialize(**difference);
    DWC_ASSERT_OK(plain_out);
    EXPECT_EQ(plain.stats().pushdown_differences, 0u);
    EXPECT_TRUE(testing::RelationsEqual(*pushed_out, *plain_out));
    // (1,2) is in both right arms; (5000,0) is in neither.
    EXPECT_EQ(pushed_out->size(), 1u);
  }
}

TEST(PushdownShapesTest, BoundLeftJoinsComputedRight) {
  // The bound relation is the left operand and the computed side is too
  // big to push down: the join builds its index on the bound side, whose
  // index cache outlives the evaluation, and still emits the left's
  // columns then the right's extra ones.
  ScriptContext context = testing::MustRun(R"(
CREATE TABLE Big(k INT, v INT);
CREATE TABLE Other(w INT, k INT);
)");
  Relation* big = context.db.FindMutableRelation("Big");
  Relation* other = context.db.FindMutableRelation("Other");
  for (int64_t i = 0; i < 40; ++i) {
    big->Insert(Tuple({Value::Int(i), Value::Int(i * 2)}));
    other->Insert(Tuple({Value::Int(i), Value::Int(i % 20)}));
  }
  Environment env = Environment::FromDatabase(context.db);
  Result<ExprRef> expr = ParseExpr("Big join select[w < 12](Other)");
  DWC_ASSERT_OK(expr);
  Result<Relation> reference = ReferenceEval(**expr, env);
  DWC_ASSERT_OK(reference);
  ASSERT_EQ(reference->schema().ToString(),
            "(k INT, v INT, w INT)");
  const Relation* bound = env.Find("Big");
  ASSERT_NE(bound, nullptr);
  EXPECT_FALSE(bound->HasIndex({"k"}));
  for (bool pushdown : {true, false}) {
    SCOPED_TRACE(pushdown);
    EvaluatorOptions options;
    options.enable_pushdown = pushdown;
    Evaluator evaluator(&env, options);
    Result<Relation> out = evaluator.Materialize(**expr);
    DWC_ASSERT_OK(out);
    EXPECT_EQ(evaluator.stats().pushdown_joins, 0u);
    EXPECT_TRUE(out->schema() == reference->schema())
        << out->schema().ToString();
    EXPECT_TRUE(testing::RelationsEqual(*out, *reference));
    EXPECT_TRUE(bound->HasIndex({"k"}));
  }
  EXPECT_EQ(reference->size(), 12u);
}

TEST(PushdownShapesTest, EqualityAndRangeSelectionProbesOnce) {
  // σ[a = c and b > d] over a bound relation probes its index once with
  // the key (c) and tests the whole predicate on the matches.
  ScriptContext context = testing::MustRun(R"(
CREATE TABLE R(a INT, b INT);
)");
  Relation* r = context.db.FindMutableRelation("R");
  for (int64_t i = 0; i < 100; ++i) {
    r->Insert(Tuple({Value::Int(i % 10), Value::Int(i)}));
  }
  Environment env = Environment::FromDatabase(context.db);
  Result<ExprRef> expr = ParseExpr("select[a = 3 and b > 50](R)");
  DWC_ASSERT_OK(expr);
  Evaluator pushed(&env);
  Result<Relation> pushed_out = pushed.Materialize(**expr);
  DWC_ASSERT_OK(pushed_out);
  EXPECT_EQ(pushed.stats().index_probes, 1u);
  EvaluatorOptions plain_options;
  plain_options.enable_pushdown = false;
  Evaluator plain(&env, plain_options);
  Result<Relation> plain_out = plain.Materialize(**expr);
  DWC_ASSERT_OK(plain_out);
  EXPECT_EQ(plain.stats().index_probes, 0u);
  EXPECT_TRUE(pushed_out->schema() == plain_out->schema());
  EXPECT_TRUE(testing::RelationsEqual(*pushed_out, *plain_out));
  Result<Relation> reference = ReferenceEval(**expr, env);
  DWC_ASSERT_OK(reference);
  EXPECT_TRUE(testing::RelationsEqual(*pushed_out, *reference));
  // a = 3 holds for b in {3, 13, ..., 93}; b > 50 keeps 53 through 93.
  EXPECT_EQ(pushed_out->size(), 5u);
}

TEST(PushdownShapesTest, FilterThroughRenameAndSelect) {
  ScriptContext context = testing::MustRun(R"(
CREATE TABLE Big(a INT, b INT);
CREATE TABLE Tiny(x INT);
INSERT INTO Tiny VALUES (7), (8);
)");
  Relation* big = context.db.FindMutableRelation("Big");
  for (int64_t i = 0; i < 500; ++i) {
    big->Insert(Tuple({Value::Int(i), Value::Int(i % 10)}));
  }
  Environment env = Environment::FromDatabase(context.db);
  Result<ExprRef> expr = ParseExpr(
      "Tiny join rename[a -> x](select[b >= 5](Big))");
  DWC_ASSERT_OK(expr);
  Result<Relation> out = EvalExpr(**expr, env);
  DWC_ASSERT_OK(out);
  Result<Relation> reference = ReferenceEval(**expr, env);
  DWC_ASSERT_OK(reference);
  EXPECT_TRUE(testing::RelationsEqual(*out, *reference));
  // a=7 -> b=7 passes; a=8 -> b=8 passes.
  EXPECT_EQ(out->size(), 2u);
}

TEST(PushdownShapesTest, PartialFilterIntoJoinChildren) {
  // Filter attributes split across the two join children.
  ScriptContext context = testing::MustRun(R"(
CREATE TABLE L(a INT, j INT);
CREATE TABLE R2(j INT, b INT);
CREATE TABLE Probe(a INT, b INT);
INSERT INTO Probe VALUES (1, 100), (2, 999);
)");
  Relation* l = context.db.FindMutableRelation("L");
  Relation* r = context.db.FindMutableRelation("R2");
  for (int64_t i = 0; i < 300; ++i) {
    l->Insert(Tuple({Value::Int(i), Value::Int(i % 50)}));
    r->Insert(Tuple({Value::Int(i % 50), Value::Int(i * 100)}));
  }
  Environment env = Environment::FromDatabase(context.db);
  Result<ExprRef> expr = ParseExpr("Probe join (L join R2)");
  DWC_ASSERT_OK(expr);
  Result<Relation> out = EvalExpr(**expr, env);
  DWC_ASSERT_OK(out);
  Result<Relation> reference = ReferenceEval(**expr, env);
  DWC_ASSERT_OK(reference);
  EXPECT_TRUE(testing::RelationsEqual(*out, *reference));
}

}  // namespace
}  // namespace dwc
