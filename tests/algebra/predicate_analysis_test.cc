#include "algebra/implication.h"

#include <string>

#include <gtest/gtest.h>

#include "parser/parser.h"

namespace dwc {
namespace {

PredicateRef MustParsePred(const std::string& text) {
  Result<PredicateRef> pred = ParsePredicate(text);
  EXPECT_TRUE(pred.ok()) << text << ": " << pred.status().message();
  return *pred;
}

struct PredicateCase {
  const char* text;
  bool unsat;
  bool taut;
};

TEST(PredicateAnalysisTest, Table) {
  const PredicateCase kCases[] = {
      // Satisfiable, not tautological.
      {"a = 5", false, false},
      {"a > 1 AND a < 10", false, false},
      {"a = 1 OR b = 2", false, false},
      {"a = b", false, false},
      {"NOT a = 5", false, false},
      // Provably unsatisfiable.
      {"a > 5 AND a < 3", true, false},
      {"a = 1 AND a = 2", true, false},
      {"a = 1 AND a <> 1", true, false},
      {"a < b AND a > b", true, false},
      {"a = b AND a <> b", true, false},
      {"a > 5 AND NOT a > 5", true, false},
      {"(a > 5 AND a < 3) OR (a = 1 AND a = 2)", true, false},
      {"1 = 2", true, false},
      // Provably tautological.
      {"a >= 0 OR a < 0", false, true},
      {"a = 5 OR a <> 5", false, true},
      {"a <= b OR a > b", false, true},
      {"NOT (a > 5 AND a < 3)", false, true},
      {"1 = 1", false, true},
      // Contradiction under the equality-only fragment but not provable by
      // pairwise interval reasoning: stays "satisfiable" (sound, incomplete).
      {"a < b AND b < c AND c < a", false, false},
  };
  for (const PredicateCase& c : kCases) {
    PredicateRef pred = MustParsePred(c.text);
    EXPECT_EQ(ProvablyUnsatisfiable(pred), c.unsat) << c.text;
    EXPECT_EQ(Implies(Predicate::True(), pred), c.taut) << c.text;
  }
}

TEST(PredicateAnalysisTest, TrueIsTautology) {
  EXPECT_TRUE(Implies(Predicate::True(), Predicate::True()));
  EXPECT_FALSE(ProvablyUnsatisfiable(Predicate::True()));
}

TEST(PredicateAnalysisTest, WideDisjunctionStaysWithinBudget) {
  // 2^40 DNF disjuncts if fully expanded; the analyzer must give up (and
  // report "satisfiable") rather than blow up.
  PredicateRef pred = MustParsePred("a = 0 OR a = 1");
  PredicateRef wide = pred;
  for (int i = 0; i < 40; ++i) wide = Predicate::And(wide, pred);
  EXPECT_FALSE(ProvablyUnsatisfiable(wide));
}

TEST(PredicateAnalysisTest, MixedTypeComparisonsDoNotAssumeOrder) {
  // 'x' vs 5 compares under the engine's total type-first order; interval
  // reasoning stays valid, so a < 5 AND a > 'x' is simply not refutable
  // unless the constants themselves contradict.
  PredicateRef pred = MustParsePred("a < 5 AND a > 'x'");
  EXPECT_FALSE(Implies(Predicate::True(), pred));
}

}  // namespace
}  // namespace dwc
