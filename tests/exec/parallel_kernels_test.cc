// Morsel-driven kernel tests: ParallelProduce / PartitionedIndex units,
// plus the evaluator-level determinism contract — every operator produces
// SameContentAs-identical results at thread counts {1, 2, 4, 8}, with the
// parallel_kernels counter proving the parallel paths actually engaged.
// Runs under TSan in CI (ctest -L dwc_tsan).

#include <gtest/gtest.h>

#include <vector>

#include "algebra/environment.h"
#include "algebra/evaluator.h"
#include "exec/kernels.h"
#include "testing/test_util.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dwc {
namespace {

using testing::I;
using testing::RelationsEqual;
using testing::S;
using testing::T;

Relation MakeWide(size_t n, uint64_t seed) {
  Relation rel(Schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}}));
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    rel.Insert(T({I(static_cast<int64_t>(i)), I(rng.Range(0, 999))}));
  }
  return rel;
}

// Forces the parallel path regardless of input size.
ExecOptions ForcedParallel(size_t threads) {
  ExecOptions options;
  options.num_threads = threads;
  options.min_parallel_tuples = 1;
  options.morsel_size = 64;
  return options;
}

TEST(ParallelProduceTest, MatchesSerialAcrossThreadCounts) {
  Relation in = MakeWide(2000, 3);
  std::vector<const Tuple*> snapshot = SnapshotTuples(in);
  auto produce = [&](MorselRange range, std::vector<Tuple>* out) -> Status {
    for (size_t i = range.begin; i < range.end; ++i) {
      if (snapshot[i]->at(1).AsInt() % 3 == 0) {
        out->push_back(*snapshot[i]);
      }
    }
    return Status::Ok();
  };
  Relation serial(in.schema());
  ExecOptions serial_options;
  serial_options.num_threads = 1;
  DWC_ASSERT_OK(
      ParallelProduce(snapshot.size(), serial_options, produce, &serial));
  for (size_t threads : {2u, 4u, 8u}) {
    Relation parallel(in.schema());
    DWC_ASSERT_OK(ParallelProduce(snapshot.size(), ForcedParallel(threads),
                                  produce, &parallel));
    EXPECT_TRUE(RelationsEqual(parallel, serial)) << threads << " threads";
  }
}

TEST(ParallelProduceTest, LowestMorselErrorWins) {
  ExecOptions options = ForcedParallel(4);
  options.morsel_size = 10;
  auto produce = [&](MorselRange range, std::vector<Tuple>*) -> Status {
    if (range.begin >= 50) {
      return Status::Internal(StrCat("morsel at ", range.begin));
    }
    return Status::Ok();
  };
  Relation out(Schema({{"k", ValueType::kInt}}));
  Status status = ParallelProduce(200, options, produce, &out);
  ASSERT_FALSE(status.ok());
  // Morsels at 50, 60, ... all fail; the lowest index must be reported
  // deterministically regardless of completion order.
  EXPECT_NE(status.ToString().find("morsel at 50"), std::string::npos)
      << status.ToString();
}

TEST(PartitionedIndexTest, FindsExactlyTheMatchingTuples) {
  Relation build = MakeWide(3000, 9);
  std::vector<const Tuple*> snapshot = SnapshotTuples(build);
  // Key on v (index 1): many duplicates across the 1000-value domain.
  PartitionedIndex index =
      PartitionedIndex::Build(snapshot, {1}, ForcedParallel(4));
  EXPECT_GT(index.partition_count(), 1u);
  // Cross-check against a scan for a sample of keys.
  for (int64_t key : {0, 1, 500, 998, 999}) {
    Tuple probe({I(key)});
    const std::vector<const Tuple*>* bucket = index.Find(probe);
    size_t expected = 0;
    for (const Tuple* t : snapshot) {
      if (t->at(1).AsInt() == key) {
        ++expected;
      }
    }
    size_t actual = bucket == nullptr ? 0 : bucket->size();
    EXPECT_EQ(actual, expected) << "key " << key;
  }
  EXPECT_EQ(index.Find(Tuple({I(12345)})), nullptr);
}

// The evaluator-level contract: identical results at every thread count.
class ParallelEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_ = MakeWide(6000, 1);
    right_ = Relation(
        Schema({{"v", ValueType::kInt}, {"name", ValueType::kString}}));
    for (int64_t v = 0; v < 1000; v += 2) {  // half the v-domain matches
      right_.Insert(T({I(v), S("x")}));
    }
    env_.Bind("L", &left_);
    env_.Bind("R", &right_);
  }

  // Materializes `expr` at the given thread count with tiny parallel
  // thresholds so every eligible operator takes the parallel path.
  Relation Eval(const ExprRef& expr, size_t threads, EvalStats* stats) {
    EvaluatorOptions options;
    options.num_threads = threads;
    options.min_parallel_tuples = 1;
    options.morsel_size = 64;
    Evaluator evaluator(&env_, options);
    Result<Relation> result = evaluator.Materialize(*expr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    *stats = evaluator.stats();
    return std::move(result).value();
  }

  // `expect_parallel` is false for a tree with no parallel kernel in it.
  void ExpectSameAtAllThreadCounts(const ExprRef& expr,
                                   bool expect_parallel = true) {
    EvalStats serial_stats;
    Relation serial = Eval(expr, 1, &serial_stats);
    EXPECT_EQ(serial_stats.parallel_kernels, 0u);
    for (size_t threads : {2u, 4u, 8u}) {
      EvalStats stats;
      Relation parallel = Eval(expr, threads, &stats);
      EXPECT_TRUE(RelationsEqual(parallel, serial)) << threads << " threads";
      if (expect_parallel) {
        EXPECT_GT(stats.parallel_kernels, 0u) << threads << " threads";
      }
    }
  }

  Relation left_{Schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}})};
  Relation right_{Schema({{"v", ValueType::kInt}})};
  Environment env_;
};

TEST_F(ParallelEvaluatorTest, Select) {
  ExpectSameAtAllThreadCounts(Expr::Select(
      Predicate::Cmp(Operand::Attr("v"), CmpOp::kLt, Operand::Const(I(250))),
      Expr::Base("L")));
}

TEST_F(ParallelEvaluatorTest, Project) {
  // Projection is one serial project-and-deduplicate pass at every thread
  // count, so only the result is compared.
  ExpectSameAtAllThreadCounts(Expr::Project({"v"}, Expr::Base("L")),
                              /*expect_parallel=*/false);
}

TEST_F(ParallelEvaluatorTest, JoinAgainstBoundRelation) {
  // Build side is env-bound (stable): probes go through the cached index.
  ExpectSameAtAllThreadCounts(Expr::Join(Expr::Base("L"), Expr::Base("R")));
}

TEST_F(ParallelEvaluatorTest, JoinAgainstComputedRelation) {
  // Build side is an unstable intermediate: a transient partitioned index
  // is built in parallel.
  ExpectSameAtAllThreadCounts(Expr::Join(
      Expr::Base("L"),
      Expr::Select(Predicate::Cmp(Operand::Attr("v"), CmpOp::kLt,
                                  Operand::Const(I(700))),
                   Expr::Base("R"))));
}

TEST_F(ParallelEvaluatorTest, Difference) {
  ExpectSameAtAllThreadCounts(Expr::Difference(
      Expr::Project({"v"}, Expr::Base("L")),
      Expr::Select(Predicate::Cmp(Operand::Attr("v"), CmpOp::kGe,
                                  Operand::Const(I(500))),
                   Expr::Project({"v"}, Expr::Base("L")))));
}

TEST_F(ParallelEvaluatorTest, ComposedExpression) {
  // select o project o join o union: several kernels in one tree.
  ExprRef tree = Expr::Project(
      {"k", "v"},
      Expr::Select(
          Predicate::Cmp(Operand::Attr("v"), CmpOp::kGe, Operand::Const(I(8))),
          Expr::Join(Expr::Base("L"), Expr::Base("R"))));
  ExpectSameAtAllThreadCounts(tree);
}

TEST_F(ParallelEvaluatorTest, SerialBelowMinParallelTuples) {
  // Default thresholds: a 6000-tuple input at 4 threads parallelizes, but
  // only operators whose *input* crosses min_parallel_tuples do.
  EvaluatorOptions options;
  options.num_threads = 4;
  options.min_parallel_tuples = 1 << 20;
  Evaluator evaluator(&env_, options);
  Result<Relation> result =
      evaluator.Materialize(*Expr::Join(Expr::Base("L"), Expr::Base("R")));
  DWC_ASSERT_OK(result);
  EXPECT_EQ(evaluator.stats().parallel_kernels, 0u);
}

}  // namespace
}  // namespace dwc
