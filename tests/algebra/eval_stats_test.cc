// EvalStats: the evaluator reports how it did its work (EXPLAIN-style).

#include <gtest/gtest.h>

#include "algebra/evaluator.h"
#include "parser/parser.h"
#include "testing/test_util.h"

namespace dwc {
namespace {

using ::dwc::testing::I;
using ::dwc::testing::T;

class EvalStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    big_ = Relation(Schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}}));
    for (int64_t i = 0; i < 500; ++i) {
      big_.Insert(T({I(i), I(i * 3)}));
    }
    tiny_ = Relation(Schema({{"k", ValueType::kInt}}));
    tiny_.Insert(T({I(7)}));
    tiny_.Insert(T({I(450)}));
    env_.Bind("Big", &big_);
    env_.Bind("Tiny", &tiny_);
  }

  Relation big_{Schema(std::vector<Attribute>{})};
  Relation tiny_{Schema(std::vector<Attribute>{})};
  Environment env_;
};

TEST_F(EvalStatsTest, PushdownJoinCountsProbes) {
  Result<ExprRef> expr = ParseExpr("Tiny join project[k, v](Big)");
  DWC_ASSERT_OK(expr);
  Evaluator evaluator(&env_);
  Result<Relation> out = evaluator.Materialize(**expr);
  DWC_ASSERT_OK(out);
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(evaluator.stats().joins, 1u);
  EXPECT_EQ(evaluator.stats().pushdown_joins, 1u);
  EXPECT_EQ(evaluator.stats().index_probes, 2u);  // Two keys probed.
}

TEST_F(EvalStatsTest, DisabledPushdownReportsPlainJoins) {
  Result<ExprRef> expr = ParseExpr("Tiny join project[k, v](Big)");
  DWC_ASSERT_OK(expr);
  EvaluatorOptions options;
  options.enable_pushdown = false;
  Evaluator evaluator(&env_, options);
  Result<Relation> out = evaluator.Materialize(**expr);
  DWC_ASSERT_OK(out);
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(evaluator.stats().joins, 1u);
  EXPECT_EQ(evaluator.stats().pushdown_joins, 0u);
  EXPECT_EQ(evaluator.stats().index_probes, 0u);
}

TEST_F(EvalStatsTest, EveryJoinOfAChainCounts) {
  Result<ExprRef> expr = ParseExpr("Tiny join Big join Tiny join Big");
  DWC_ASSERT_OK(expr);
  for (bool pushdown : {true, false}) {
    SCOPED_TRACE(pushdown);
    EvaluatorOptions options;
    options.enable_pushdown = pushdown;
    Evaluator evaluator(&env_, options);
    Result<Relation> out = evaluator.Materialize(**expr);
    DWC_ASSERT_OK(out);
    EXPECT_EQ(out->size(), 2u);
    EXPECT_EQ(evaluator.stats().joins, 3u);
  }
}

TEST_F(EvalStatsTest, DifferencePushdownCounted) {
  Relation small(big_.schema());
  small.Insert(T({I(3), I(9)}));
  small.Insert(T({I(900), I(0)}));
  env_.Bind("Small", &small);
  Result<ExprRef> expr = ParseExpr("Small minus project[k, v](Big)");
  DWC_ASSERT_OK(expr);
  Evaluator evaluator(&env_);
  Result<Relation> out = evaluator.Materialize(**expr);
  DWC_ASSERT_OK(out);
  EXPECT_EQ(out->size(), 1u);
  EXPECT_EQ(evaluator.stats().differences, 1u);
  EXPECT_EQ(evaluator.stats().pushdown_differences, 1u);
}

TEST_F(EvalStatsTest, StatsAccumulateAndReset) {
  Result<ExprRef> expr = ParseExpr("Tiny join Big");
  DWC_ASSERT_OK(expr);
  Evaluator evaluator(&env_);
  DWC_ASSERT_OK(evaluator.Materialize(**expr));
  DWC_ASSERT_OK(evaluator.Materialize(**expr));
  EXPECT_EQ(evaluator.stats().joins, 2u);
  evaluator.ResetStats();
  EXPECT_EQ(evaluator.stats().joins, 0u);
  EXPECT_FALSE(evaluator.stats().ToString().empty());
}

}  // namespace
}  // namespace dwc
