#include "algebra/evaluator.h"

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "runtime/cancel.h"
#include "testing/test_util.h"

namespace dwc {
namespace {

using ::dwc::testing::I;
using ::dwc::testing::S;
using ::dwc::testing::T;

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = Relation(Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
    r_.Insert(T({I(1), I(10)}));
    r_.Insert(T({I(2), I(20)}));
    r_.Insert(T({I(3), I(30)}));
    s_ = Relation(Schema({{"b", ValueType::kInt}, {"c", ValueType::kString}}));
    s_.Insert(T({I(10), S("x")}));
    s_.Insert(T({I(10), S("y")}));
    s_.Insert(T({I(40), S("z")}));
    env_.Bind("R", &r_);
    env_.Bind("S", &s_);
  }

  Relation Eval(const std::string& text) {
    Result<ExprRef> expr = ParseExpr(text);
    EXPECT_TRUE(expr.ok()) << expr.status();
    Result<Relation> rel = EvalExpr(**expr, env_);
    EXPECT_TRUE(rel.ok()) << rel.status();
    return std::move(rel).value();
  }

  Relation r_, s_;
  Environment env_;
};

TEST_F(EvaluatorTest, BaseAliasesWithoutCopy) {
  Evaluator evaluator(&env_);
  Result<ExprRef> expr = ParseExpr("R");
  DWC_ASSERT_OK(expr);
  Result<std::shared_ptr<const Relation>> rel = evaluator.Eval(**expr);
  DWC_ASSERT_OK(rel);
  EXPECT_EQ(rel->get(), &r_);  // No copy: the binding itself.
}

TEST_F(EvaluatorTest, UnboundNameFails) {
  Result<ExprRef> expr = ParseExpr("Nope");
  DWC_ASSERT_OK(expr);
  Result<Relation> rel = EvalExpr(**expr, env_);
  EXPECT_EQ(rel.status().code(), StatusCode::kNotFound);
}

TEST_F(EvaluatorTest, Select) {
  Relation out = Eval("select[a >= 2](R)");
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains(T({I(2), I(20)})));
  EXPECT_TRUE(out.Contains(T({I(3), I(30)})));
}

TEST_F(EvaluatorTest, SelectComposite) {
  Relation out = Eval("select[a >= 2 and not (b = 30)](R)");
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(T({I(2), I(20)})));
  out = Eval("select[a = 1 or b = 30](R)");
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(EvaluatorTest, ProjectDeduplicates) {
  Relation out = Eval("project[c](S)");
  // 'x','y','z' stay; but project[b](S) collapses the two b=10 rows.
  EXPECT_EQ(out.size(), 3u);
  out = Eval("project[b](S)");
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(EvaluatorTest, ProjectReordersColumns) {
  Relation out = Eval("project[b, a](R)");
  EXPECT_EQ(out.schema().attribute(0).name, "b");
  EXPECT_TRUE(out.Contains(T({I(10), I(1)})));
}

TEST_F(EvaluatorTest, ProjectUnknownAttrFails) {
  Result<ExprRef> expr = ParseExpr("project[zz](R)");
  DWC_ASSERT_OK(expr);
  EXPECT_FALSE(EvalExpr(**expr, env_).ok());
}

TEST_F(EvaluatorTest, NaturalJoin) {
  Relation out = Eval("R join S");
  // Only b=10 matches: (1,10) x {(10,x),(10,y)}.
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.schema().ToString(), "(a INT, b INT, c STRING)");
  EXPECT_TRUE(out.Contains(T({I(1), I(10), S("x")})));
  EXPECT_TRUE(out.Contains(T({I(1), I(10), S("y")})));
}

TEST_F(EvaluatorTest, JoinWithNoSharedAttrsIsProduct) {
  Relation t(Schema({{"d", ValueType::kInt}}));
  t.Insert(T({I(7)}));
  t.Insert(T({I(8)}));
  env_.Bind("U", &t);
  Relation out = Eval("R join U");
  EXPECT_EQ(out.size(), 6u);
}

TEST_F(EvaluatorTest, SelfJoinIsIdentity) {
  Relation out = Eval("R join R");
  EXPECT_TRUE(out.SameContentAs(r_));
}

TEST_F(EvaluatorTest, UnionAndDifferenceAlignColumns) {
  Relation flipped(Schema({{"b", ValueType::kInt}, {"a", ValueType::kInt}}));
  flipped.Insert(T({I(99), I(9)}));
  flipped.Insert(T({I(10), I(1)}));  // Same as (1,10) in R.
  env_.Bind("F", &flipped);
  Relation u = Eval("R union F");
  EXPECT_EQ(u.size(), 4u);
  Relation d = Eval("R minus F");
  EXPECT_EQ(d.size(), 2u);
  EXPECT_FALSE(d.Contains(T({I(1), I(10)})));
}

TEST_F(EvaluatorTest, UnionSchemaMismatchFails) {
  Result<ExprRef> expr = ParseExpr("R union S");
  DWC_ASSERT_OK(expr);
  EXPECT_EQ(EvalExpr(**expr, env_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EvaluatorTest, Rename) {
  Relation out = Eval("rename[a -> x](R)");
  EXPECT_EQ(out.schema().ToString(), "(x INT, b INT)");
  EXPECT_TRUE(out.Contains(T({I(1), I(10)})));
  // Renaming enables unions across differently-named relations.
  out = Eval("project[x](rename[a -> x](R)) union project[x](rename[b -> x](R))");
  EXPECT_EQ(out.size(), 6u);
}

TEST_F(EvaluatorTest, RenameUnknownSourceFails) {
  Result<ExprRef> expr = ParseExpr("rename[zz -> q](R)");
  DWC_ASSERT_OK(expr);
  EXPECT_FALSE(EvalExpr(**expr, env_).ok());
}

TEST_F(EvaluatorTest, EmptyLiteral) {
  Relation out = Eval("empty[a INT, b INT]");
  EXPECT_TRUE(out.empty());
  out = Eval("R union empty[a INT, b INT]");
  EXPECT_EQ(out.size(), 3u);
  out = Eval("R join empty[b INT, c STRING]");
  EXPECT_TRUE(out.empty());
}

TEST_F(EvaluatorTest, ComposedExpression) {
  Relation out =
      Eval("project[a, c](select[c != 'y'](R join S)) minus empty[a INT, c STRING]");
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(T({I(1), S("x")})));
}

// Materialize moves out only a result the evaluator built and holds alone.
// A bound relation and a result the subplan cache holds are copied, so they
// keep their content.
TEST_F(EvaluatorTest, MaterializeCopiesABoundRelation) {
  const Relation before = r_;
  Evaluator evaluator(&env_);
  for (int call = 0; call < 2; ++call) {
    Result<Relation> out = evaluator.Materialize(*Expr::Base("R"));
    DWC_ASSERT_OK(out);
    EXPECT_TRUE(out->SameContentAs(before));
  }
  EXPECT_EQ(r_.size(), 3u);
  EXPECT_TRUE(r_.SameContentAs(before));
}

TEST_F(EvaluatorTest, MaterializeCopiesACachedResult) {
  ExprInterner interner;
  SubplanCache cache;
  cache.set_budget(1 << 10);
  EvaluatorOptions options;
  options.cache_budget_tuples = 1 << 10;
  Evaluator evaluator(&env_, options, &interner, &cache);
  Result<ExprRef> parsed =
      ParseExpr("select[a <= 1](R) union select[a >= 3](R)");
  DWC_ASSERT_OK(parsed);
  const ExprRef expr = interner.Intern(*parsed);
  Result<Relation> first = evaluator.Materialize(*expr);
  DWC_ASSERT_OK(first);
  EXPECT_EQ(first->size(), 2u);
  EXPECT_EQ(evaluator.stats().cache_hits, 0u);
  Result<Relation> second = evaluator.Materialize(*expr);
  DWC_ASSERT_OK(second);
  EXPECT_EQ(evaluator.stats().cache_hits, 1u);
  EXPECT_TRUE(second->SameContentAs(*first));
  // The second answer was copied out of the entry, which still answers.
  Result<Relation> third = evaluator.Materialize(*expr);
  DWC_ASSERT_OK(third);
  EXPECT_EQ(evaluator.stats().cache_hits, 2u);
  EXPECT_TRUE(third->SameContentAs(*first));
}

// Projection is one fused project-and-deduplicate pass: it charges the
// token's budget for each distinct output tuple, not for each row read,
// and checks the token every kCancelCheckTuples rows.
class FusedProjectionTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 100000;

  void SetUp() override {
    for (int64_t k = 0; k < kRows; ++k) {
      wide_.Insert(T({I(k), I(k % 3)}));
    }
    env_.Bind("W", &wide_);
  }

  Result<Relation> Project(const char* attr, const CancelToken* token) {
    EvaluatorOptions options;
    options.cancel = token;
    Evaluator evaluator(&env_, options);
    return evaluator.Materialize(*Expr::Project({attr}, Expr::Base("W")));
  }

  Relation wide_{Schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}})};
  Environment env_;
};

TEST_F(FusedProjectionTest, ChargesEachDistinctOutputTuple) {
  // 100 000 rows read, 3 kept: a budget of 3 tuples is enough.
  auto token = CancelToken::WithBudget(3);
  Result<Relation> out = Project("v", token.get());
  DWC_ASSERT_OK(out);
  EXPECT_EQ(out->size(), 3u);
  EXPECT_EQ(token->charged_tuples(), 3u);
}

TEST_F(FusedProjectionTest, BudgetFiresWithinOneMorsel) {
  const size_t budget = 1000;
  auto token = CancelToken::WithBudget(budget);
  Result<Relation> out = Project("k", token.get());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(token->charged_tuples(), budget);
  EXPECT_LE(token->charged_tuples(), budget + kCancelCheckTuples);
}

TEST_F(FusedProjectionTest, DeadlineStopsThePass) {
  auto expired = CancelToken::WithDeadline(std::chrono::milliseconds(-1));
  EXPECT_EQ(Project("k", expired.get()).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired->charged_tuples(), 0u);
  // A deadline that passes during the pass is seen at the next check
  // point: the pass stops before it has built every output tuple.
  auto soon = CancelToken::WithDeadline(std::chrono::microseconds(500));
  EXPECT_EQ(Project("k", soon.get()).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_LT(soon->charged_tuples(), static_cast<size_t>(kRows));
}

}  // namespace
}  // namespace dwc
