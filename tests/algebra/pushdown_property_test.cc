// Differential test for the semijoin-pushdown evaluator: joins and
// differences where one side is small take the EvalWithFilter fast path;
// their results must be identical to a reference evaluator without any
// pushdown. Random expressions over random states, plus hand-picked shapes
// that exercise each pushdown rule.

#include <gtest/gtest.h>

#include "algebra/evaluator.h"
#include "parser/parser.h"
#include "testing/property_util.h"
#include "testing/test_util.h"
#include "util/rng.h"
#include "workload/random_db.h"
#include "workload/random_views.h"

namespace dwc {
namespace {

using ::dwc::testing::CatalogShape;
using ::dwc::testing::MakeCatalog;

// Reference: evaluate bottom-up with no pushdown by materializing every
// operand through fresh single-node evaluations.
Result<Relation> ReferenceEval(const Expr& expr, const Environment& env) {
  switch (expr.kind()) {
    case Expr::Kind::kBase: {
      const Relation* rel = env.Find(expr.base_name());
      if (rel == nullptr) {
        return Status::NotFound(expr.base_name());
      }
      return *rel;
    }
    case Expr::Kind::kEmpty:
      return Relation(expr.empty_schema());
    case Expr::Kind::kSelect: {
      DWC_ASSIGN_OR_RETURN(Relation child, ReferenceEval(*expr.child(), env));
      Relation out(child.schema());
      for (const Tuple& tuple : child.tuples()) {
        DWC_ASSIGN_OR_RETURN(bool keep,
                             expr.predicate()->Eval(child.schema(), tuple));
        if (keep) {
          out.Insert(tuple);
        }
      }
      return out;
    }
    case Expr::Kind::kProject: {
      DWC_ASSIGN_OR_RETURN(Relation child, ReferenceEval(*expr.child(), env));
      DWC_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                           child.schema().IndicesOf(expr.attrs()));
      std::vector<Attribute> attrs;
      for (size_t idx : indices) {
        attrs.push_back(child.schema().attribute(idx));
      }
      DWC_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
      Relation out(std::move(schema));
      for (const Tuple& tuple : child.tuples()) {
        out.Insert(tuple.Project(indices));
      }
      return out;
    }
    case Expr::Kind::kRename: {
      DWC_ASSIGN_OR_RETURN(Relation child, ReferenceEval(*expr.child(), env));
      std::vector<Attribute> attrs;
      for (const Attribute& attr : child.schema().attributes()) {
        auto it = expr.renames().find(attr.name);
        attrs.push_back(Attribute{
            it == expr.renames().end() ? attr.name : it->second, attr.type});
      }
      DWC_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
      Relation out(std::move(schema));
      for (const Tuple& tuple : child.tuples()) {
        out.Insert(tuple);
      }
      return out;
    }
    case Expr::Kind::kJoin: {
      DWC_ASSIGN_OR_RETURN(Relation left, ReferenceEval(*expr.left(), env));
      DWC_ASSIGN_OR_RETURN(Relation right, ReferenceEval(*expr.right(), env));
      // Nested loop join: the dumbest correct implementation.
      const Schema& ls = left.schema();
      const Schema& rs = right.schema();
      std::vector<std::string> common = ls.CommonWith(rs);
      DWC_ASSIGN_OR_RETURN(std::vector<size_t> lidx, ls.IndicesOf(common));
      DWC_ASSIGN_OR_RETURN(std::vector<size_t> ridx, rs.IndicesOf(common));
      std::vector<Attribute> attrs = ls.attributes();
      std::vector<size_t> right_extra;
      for (size_t i = 0; i < rs.size(); ++i) {
        if (!ls.Contains(rs.attribute(i).name)) {
          attrs.push_back(rs.attribute(i));
          right_extra.push_back(i);
        }
      }
      DWC_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
      Relation out(std::move(schema));
      for (const Tuple& lt : left.tuples()) {
        for (const Tuple& rt : right.tuples()) {
          if (lt.Project(lidx) != rt.Project(ridx)) {
            continue;
          }
          std::vector<Value> values = lt.values();
          for (size_t idx : right_extra) {
            values.push_back(rt.at(idx));
          }
          out.Insert(Tuple(std::move(values)));
        }
      }
      return out;
    }
    case Expr::Kind::kUnion: {
      DWC_ASSIGN_OR_RETURN(Relation left, ReferenceEval(*expr.left(), env));
      DWC_ASSIGN_OR_RETURN(Relation right, ReferenceEval(*expr.right(), env));
      DWC_ASSIGN_OR_RETURN(Relation aligned, right.AlignTo(left.schema()));
      for (const Tuple& tuple : aligned.tuples()) {
        left.Insert(tuple);
      }
      return left;
    }
    case Expr::Kind::kDifference: {
      DWC_ASSIGN_OR_RETURN(Relation left, ReferenceEval(*expr.left(), env));
      DWC_ASSIGN_OR_RETURN(Relation right, ReferenceEval(*expr.right(), env));
      DWC_ASSIGN_OR_RETURN(Relation aligned, right.AlignTo(left.schema()));
      for (const Tuple& tuple : aligned.tuples()) {
        left.Erase(tuple);
      }
      return left;
    }
  }
  return Status::Internal("unknown kind");
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
