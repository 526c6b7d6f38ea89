#ifndef DWC_TESTS_TESTING_TEST_UTIL_H_
#define DWC_TESTS_TESTING_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/expr.h"
#include "parser/interpreter.h"
#include "parser/parser.h"
#include "relational/relation.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace dwc {
namespace testing {

// Uniform error extraction for Status and Result<T>.
inline Status ToStatus(const Status& status) { return status; }
template <typename T>
Status ToStatus(const Result<T>& result) {
  return result.status();
}

}  // namespace testing
}  // namespace dwc

// ASSERT that a dwc::Status or dwc::Result is OK, printing the error.
#define DWC_ASSERT_OK(expr)                                             \
  do {                                                                  \
    const auto& dwc_assert_ok_tmp_ = (expr);                            \
    ASSERT_TRUE(dwc_assert_ok_tmp_.ok())                                \
        << ::dwc::testing::ToStatus(dwc_assert_ok_tmp_).ToString();     \
  } while (0)

#define DWC_EXPECT_OK(expr)                                             \
  do {                                                                  \
    const auto& dwc_expect_ok_tmp_ = (expr);                            \
    EXPECT_TRUE(dwc_expect_ok_tmp_.ok())                                \
        << ::dwc::testing::ToStatus(dwc_expect_ok_tmp_).ToString();     \
  } while (0)

namespace dwc {
namespace testing {

// Shorthand tuple builders.
inline Tuple T(std::initializer_list<Value> values) {
  return Tuple(std::vector<Value>(values));
}
inline Value I(int64_t v) { return Value::Int(v); }
inline Value S(const char* v) { return Value::String(v); }
inline Value D(double v) { return Value::Double(v); }

// Runs a DSL script, asserting success.
inline ScriptContext MustRun(const std::string& script) {
  Result<ScriptContext> context = RunScript(script);
  EXPECT_TRUE(context.ok()) << context.status().ToString();
  if (!context.ok()) {
    return ScriptContext();
  }
  return std::move(context).value();
}

// The running example of the paper (Figure 1 / Examples 1.1, 1.2, 2.4,
// 4.1): Sales and Company databases, warehouse view Sold = Sale |x| Emp.
// `with_constraints` adds the key clerk -> age and the referential
// integrity clerk(Sale) <= clerk(Emp) used from Example 2.4 onwards.
inline std::string Figure1Script(bool with_constraints) {
  std::string script;
  if (with_constraints) {
    script +=
        "CREATE TABLE Emp(clerk STRING, age INT, KEY(clerk));\n"
        "CREATE TABLE Sale(item STRING, clerk STRING);\n"
        "INCLUSION Sale(clerk) SUBSETOF Emp(clerk);\n";
  } else {
    script +=
        "CREATE TABLE Emp(clerk STRING, age INT, KEY(clerk));\n"
        "CREATE TABLE Sale(item STRING, clerk STRING);\n";
  }
  script +=
      "INSERT INTO Sale VALUES ('TV set', 'Mary'), ('VCR', 'Mary'), "
      "('PC', 'John');\n"
      "INSERT INTO Emp VALUES ('Mary', 23), ('John', 25), ('Paula', 32);\n"
      "VIEW Sold AS Sale JOIN Emp;\n";
  return script;
}

// Sorted-tuples equality with a readable failure message.
inline ::testing::AssertionResult RelationsEqual(const Relation& actual,
                                                 const Relation& expected) {
  if (actual.SameContentAs(expected)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "relations differ:\n  actual   " << actual.ToString()
         << "\n  expected " << expected.ToString();
}

// The arms of the union chain rooted at `expr` (just `expr` when it is not
// a union), left to right.
inline void CollectUnionArms(const ExprRef& expr, std::vector<ExprRef>* arms) {
  if (expr->kind() != Expr::Kind::kUnion) {
    arms->push_back(expr);
    return;
  }
  CollectUnionArms(expr->left(), arms);
  CollectUnionArms(expr->right(), arms);
}

// An arm that some union chain anywhere in `expr` holds twice (structural
// Equals), rendered; empty when there is none.
inline std::string RepeatedUnionArm(const ExprRef& expr) {
  switch (expr->kind()) {
    case Expr::Kind::kBase:
    case Expr::Kind::kEmpty:
      return "";
    case Expr::Kind::kSelect:
    case Expr::Kind::kProject:
    case Expr::Kind::kRename:
      return RepeatedUnionArm(expr->child());
    case Expr::Kind::kJoin:
    case Expr::Kind::kDifference: {
      std::string repeated = RepeatedUnionArm(expr->left());
      return repeated.empty() ? RepeatedUnionArm(expr->right()) : repeated;
    }
    case Expr::Kind::kUnion: {
      std::vector<ExprRef> arms;
      CollectUnionArms(expr, &arms);
      for (size_t i = 0; i < arms.size(); ++i) {
        for (size_t j = i + 1; j < arms.size(); ++j) {
          if (arms[i]->Equals(*arms[j])) {
            return arms[i]->ToString();
          }
        }
        std::string repeated = RepeatedUnionArm(arms[i]);
        if (!repeated.empty()) {
          return repeated;
        }
      }
      return "";
    }
  }
  return "";
}

}  // namespace testing
}  // namespace dwc

#endif  // DWC_TESTS_TESTING_TEST_UTIL_H_
