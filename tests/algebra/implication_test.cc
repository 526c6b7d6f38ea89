#include "algebra/implication.h"

#include <vector>

#include <gtest/gtest.h>

#include "algebra/evaluator.h"
#include "parser/parser.h"
#include "testing/test_util.h"
#include "util/rng.h"

namespace dwc {
namespace {

bool ImpliesText(const std::string& p, const std::string& q) {
  Result<PredicateRef> pp = ParsePredicate(p);
  Result<PredicateRef> qq = ParsePredicate(q);
  EXPECT_TRUE(pp.ok()) << pp.status();
  EXPECT_TRUE(qq.ok()) << qq.status();
  return Implies(*pp, *qq);
}

TEST(ImplicationTest, Reflexive) {
  EXPECT_TRUE(ImpliesText("a = 1", "a = 1"));
  EXPECT_TRUE(ImpliesText("a >= 2 and b = 'x'", "b = 'x' and a >= 2"));
}

TEST(ImplicationTest, TrueIsTop) {
  EXPECT_TRUE(ImpliesText("a = 1", "true"));
  EXPECT_FALSE(ImpliesText("true", "a = 1"));
}

TEST(ImplicationTest, IntervalReasoning) {
  EXPECT_TRUE(ImpliesText("a = 5", "a >= 5"));
  EXPECT_TRUE(ImpliesText("a = 5", "a > 4"));
  EXPECT_TRUE(ImpliesText("a > 5", "a > 4"));
  EXPECT_TRUE(ImpliesText("a > 5", "a >= 5"));
  EXPECT_TRUE(ImpliesText("a >= 5", "a > 4"));
  EXPECT_TRUE(ImpliesText("a < 3", "a <= 3"));
  EXPECT_TRUE(ImpliesText("a <= 3", "a < 4"));
  EXPECT_FALSE(ImpliesText("a >= 5", "a > 5"));
  EXPECT_FALSE(ImpliesText("a > 4", "a > 5"));
  EXPECT_FALSE(ImpliesText("a <= 4", "a < 4"));
}

TEST(ImplicationTest, DisequalityFromIntervals) {
  EXPECT_TRUE(ImpliesText("a = 3", "a != 4"));
  EXPECT_TRUE(ImpliesText("a < 3", "a != 3"));
  EXPECT_TRUE(ImpliesText("a < 3", "a != 7"));
  EXPECT_TRUE(ImpliesText("a > 3", "a != 3"));
  EXPECT_FALSE(ImpliesText("a != 3", "a != 4"));
}

TEST(ImplicationTest, ConjunctionOnBothSides) {
  EXPECT_TRUE(ImpliesText("a = 1 and b = 2 and c = 3", "a = 1 and c = 3"));
  EXPECT_FALSE(ImpliesText("a = 1", "a = 1 and b = 2"));
  EXPECT_TRUE(ImpliesText("a > 2 and a < 9", "a > 0 and a != 0"));
}

TEST(ImplicationTest, DisjunctionHandling) {
  // p with OR: every disjunct must imply q.
  EXPECT_TRUE(ImpliesText("a = 1 or a = 2", "a <= 2"));
  EXPECT_FALSE(ImpliesText("a = 1 or a = 5", "a <= 2"));
  // q with OR: some disjunct must follow.
  EXPECT_TRUE(ImpliesText("a = 1", "a = 1 or a = 2"));
  EXPECT_TRUE(ImpliesText("a = 2 and b = 9", "b = 0 or a >= 2"));
  EXPECT_FALSE(ImpliesText("a = 3", "a = 1 or a = 2"));
}

TEST(ImplicationTest, NegationRewrites) {
  EXPECT_TRUE(ImpliesText("a >= 5", "not (a < 5)"));
  EXPECT_TRUE(ImpliesText("not (a < 5)", "a >= 5"));
  EXPECT_TRUE(ImpliesText("not (a = 3 or b = 4)", "a != 3"));
  EXPECT_FALSE(ImpliesText("not (a = 3)", "a = 3"));
}

TEST(ImplicationTest, OpaqueLiteralsMatchSyntactically) {
  EXPECT_TRUE(ImpliesText("a = b and c = 1", "a = b"));
  EXPECT_FALSE(ImpliesText("a = b", "b = c"));
}

TEST(ImplicationTest, AttributePairsAndConstantsNormalize) {
  EXPECT_TRUE(ImpliesText("b = a", "a = b"));
  EXPECT_TRUE(ImpliesText("a < b", "a <= b"));
  EXPECT_TRUE(ImpliesText("a = 1", "2 > 1"));
  EXPECT_FALSE(ImpliesText("a <= b", "a < b"));
  EXPECT_FALSE(ImpliesText("a = 1", "1 > 2"));
}

TEST(ImplicationTest, MixedNumericTypes) {
  EXPECT_TRUE(ImpliesText("a = 3", "a >= 2.5"));
  EXPECT_TRUE(ImpliesText("a > 2.5", "a > 2"));
}

TEST(ImplicationTest, StringComparisons) {
  EXPECT_TRUE(ImpliesText("s = 'emea'", "s != 'apac'"));
  EXPECT_FALSE(ImpliesText("s != 'emea'", "s = 'apac'"));
}

// A random predicate over attributes a, b, c: comparisons with an int, a
// double or a string constant, and attribute-to-attribute comparisons,
// combined by AND, OR and NOT up to `depth` levels (at most 2^depth
// comparisons).
PredicateRef RandomPredicate(Rng* rng, int depth) {
  if (depth == 0 || rng->Chance(0.4)) {
    const char* attrs[] = {"a", "b", "c"};
    CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                   CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
    Operand lhs = Operand::Attr(attrs[rng->Below(3)]);
    CmpOp op = ops[rng->Below(6)];
    if (rng->Chance(0.25)) {
      return Predicate::Cmp(lhs, op, Operand::Attr(attrs[rng->Below(3)]));
    }
    Value constant = Value::Int(rng->Range(0, 3));
    if (rng->Chance(0.1)) {
      constant = Value::Double(1.5);
    } else if (rng->Chance(0.1)) {
      constant = Value::String("m");
    }
    return rng->Chance(0.2) ? Predicate::Cmp(Operand::Const(constant), op, lhs)
                            : Predicate::Cmp(lhs, op, Operand::Const(constant));
  }
  switch (rng->Below(3)) {
    case 0:
      return Predicate::And(RandomPredicate(rng, depth - 1),
                            RandomPredicate(rng, depth - 1));
    case 1:
      return Predicate::Or(RandomPredicate(rng, depth - 1),
                           RandomPredicate(rng, depth - 1));
    default:
      return Predicate::Not(RandomPredicate(rng, depth - 1));
  }
}

// Every (a, b, c) over ints -1..4, one double and one string.
std::vector<Tuple> GridTuples() {
  std::vector<Value> values;
  for (int64_t v = -1; v <= 4; ++v) {
    values.push_back(Value::Int(v));
  }
  values.push_back(Value::Double(1.5));
  values.push_back(Value::String("m"));
  std::vector<Tuple> tuples;
  for (const Value& a : values) {
    for (const Value& b : values) {
      for (const Value& c : values) {
        tuples.push_back(Tuple({a, b, c}));
      }
    }
  }
  return tuples;
}

// Soundness property: whenever Implies(p, q), every grid tuple satisfying p
// satisfies q; whenever ProvablyUnsatisfiable(p), no grid tuple satisfies
// p; whenever Implies(True, p), every grid tuple satisfies p.
TEST(ImplicationTest, SoundnessOnGrid) {
  Rng rng(808);
  Schema schema({{"a", ValueType::kInt},
                 {"b", ValueType::kInt},
                 {"c", ValueType::kInt}});
  const std::vector<Tuple> grid = GridTuples();
  auto eval = [&](const PredicateRef& pred, const Tuple& tuple) {
    Result<bool> value = pred->Eval(schema, tuple);
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() && *value;
  };
  int implications_found = 0;
  int unsat_found = 0;
  int taut_found = 0;
  for (int round = 0; round < 2000; ++round) {
    PredicateRef p = RandomPredicate(&rng, 2);
    PredicateRef q = RandomPredicate(&rng, 2);
    bool implies = Implies(p, q);
    bool unsat = ProvablyUnsatisfiable(p);
    bool taut = Implies(Predicate::True(), p);
    implications_found += implies;
    unsat_found += unsat;
    taut_found += taut;
    for (const Tuple& tuple : grid) {
      bool pv = eval(p, tuple);
      ASSERT_TRUE(!implies || !pv || eval(q, tuple))
          << "p = " << p->ToString() << ", q = " << q->ToString() << " at "
          << tuple.ToString();
      ASSERT_TRUE(!unsat || !pv)
          << "unsatisfiable p = " << p->ToString() << " holds at "
          << tuple.ToString();
      ASSERT_TRUE(!taut || pv) << "tautology p = " << p->ToString()
                               << " fails at " << tuple.ToString();
    }
  }
  // The test must actually exercise hits.
  EXPECT_GT(implications_found, 10);
  EXPECT_GT(unsat_found, 5);
  EXPECT_GT(taut_found, 5);
}

// Completeness floor: on predicates with at most four comparisons the DNF
// stays inside its budget, and these implications always hold.
TEST(ImplicationTest, StructuralImplicationsAlwaysProved) {
  Rng rng(909);
  for (int round = 0; round < 400; ++round) {
    PredicateRef p = RandomPredicate(&rng, 2);
    PredicateRef q = RandomPredicate(&rng, 2);
    EXPECT_TRUE(Implies(p, p)) << p->ToString();
    EXPECT_TRUE(Implies(Predicate::And(p, q), p))
        << p->ToString() << " and " << q->ToString();
    EXPECT_TRUE(Implies(p, Predicate::Or(p, q)))
        << p->ToString() << " or " << q->ToString();
  }
}

}  // namespace
}  // namespace dwc
