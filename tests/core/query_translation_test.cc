// E2 / Theorem 3.1 (DESIGN.md): query translation through W^-1.

#include <gtest/gtest.h>

#include "algebra/evaluator.h"
#include "algebra/optimizer.h"
#include "algebra/rewriter.h"
#include "algebra/simplifier.h"
#include "core/query_translation.h"
#include "core/warehouse_spec.h"
#include "parser/parser.h"
#include "testing/test_util.h"
#include "util/string_util.h"
#include "warehouse/warehouse.h"

namespace dwc {
namespace {

using ::dwc::testing::Figure1Script;
using ::dwc::testing::MustRun;

class QueryTranslationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    context_ = MustRun(Figure1Script(/*with_constraints=*/true));
    Result<WarehouseSpec> spec =
        SpecifyWarehouse(context_.catalog, context_.views);
    DWC_ASSERT_OK(spec);
    spec_ = std::make_shared<WarehouseSpec>(std::move(spec).value());
    Result<Warehouse> warehouse = Warehouse::Load(spec_, context_.db);
    DWC_ASSERT_OK(warehouse);
    warehouse_ = std::make_unique<Warehouse>(std::move(warehouse).value());
  }

  // Asserts Q(d) == Q̄(W(d)) for the current state.
  void ExpectCommutes(const std::string& query_text) {
    Result<ExprRef> query = ParseExpr(query_text);
    DWC_ASSERT_OK(query);
    Result<Relation> direct = context_.Evaluate(*query);
    DWC_ASSERT_OK(direct);
    Result<Relation> via_warehouse = warehouse_->AnswerQuery(*query);
    DWC_ASSERT_OK(via_warehouse);
    EXPECT_TRUE(testing::RelationsEqual(*via_warehouse, *direct))
        << "query: " << query_text;
  }

  ScriptContext context_;
  std::shared_ptr<WarehouseSpec> spec_;
  std::unique_ptr<Warehouse> warehouse_;
};

TEST_F(QueryTranslationTest, TranslatedQueriesCommute) {
  ExpectCommutes("Sale");
  ExpectCommutes("Emp");
  ExpectCommutes("Sale JOIN Emp");
  ExpectCommutes("project[clerk](Sale) union project[clerk](Emp)");
  ExpectCommutes("project[clerk](Emp) minus project[clerk](Sale)");
  ExpectCommutes("select[age >= 25](Emp)");
  ExpectCommutes("project[age](select[item = 'PC'](Sale) JOIN Emp)");
  ExpectCommutes("rename[clerk -> seller](Sale)");
  ExpectCommutes("select[item != 'VCR'](Sale) JOIN select[age < 30](Emp)");
}

TEST_F(QueryTranslationTest, TranslationMentionsOnlyWarehouseNames) {
  Result<ExprRef> query =
      ParseExpr("project[clerk](Sale) union project[clerk](Emp)");
  DWC_ASSERT_OK(query);
  Result<ExprRef> translated = TranslateQuery(*query, *spec_);
  DWC_ASSERT_OK(translated);
  for (const std::string& name : (*translated)->ReferencedNames()) {
    EXPECT_NE(name, "Sale");
    EXPECT_NE(name, "Emp");
    EXPECT_NE(spec_->FindWarehouseSchema(name), nullptr)
        << "unresolved name " << name;
  }
}

TEST_F(QueryTranslationTest, Example12TranslationShape) {
  // With referential integrity, Sale = pi_{item,clerk}(Sold) and
  // Emp = C_Emp U pi_{clerk,age}(Sold): the union query needs only Sold
  // and C_Emp.
  Result<ExprRef> query =
      ParseExpr("project[clerk](Sale) union project[clerk](Emp)");
  DWC_ASSERT_OK(query);
  Result<ExprRef> translated = TranslateQuery(*query, *spec_);
  DWC_ASSERT_OK(translated);
  std::set<std::string> names = (*translated)->ReferencedNames();
  EXPECT_EQ(names, (std::set<std::string>{"Sold", "C_Emp"}));
}

TEST_F(QueryTranslationTest, WarehouseNamesPassThrough) {
  // A query already phrased over warehouse relations is untouched.
  Result<ExprRef> query = ParseExpr("project[clerk](Sold)");
  DWC_ASSERT_OK(query);
  Result<ExprRef> translated = TranslateQuery(*query, *spec_);
  DWC_ASSERT_OK(translated);
  EXPECT_TRUE((*translated)->Equals(**query));
}

TEST_F(QueryTranslationTest, UnknownRelationRejected) {
  Result<ExprRef> query = ParseExpr("project[clerk](Nonexistent)");
  DWC_ASSERT_OK(query);
  Result<ExprRef> translated = TranslateQuery(*query, *spec_);
  EXPECT_FALSE(translated.ok());
  EXPECT_EQ(translated.status().code(), StatusCode::kNotFound);
}

TEST_F(QueryTranslationTest, CommutesAfterUpdates) {
  // Evolve the source, refresh the warehouse, and re-check the diagram.
  Source source(context_.db);
  Result<Warehouse> warehouse = Warehouse::Load(spec_, source.db());
  DWC_ASSERT_OK(warehouse);

  UpdateOp op1{"Emp", {testing::T({testing::S("Zoe"), testing::I(41)})}, {}};
  Result<CanonicalDelta> d1 = source.Apply(op1);
  DWC_ASSERT_OK(d1);
  DWC_ASSERT_OK(warehouse->Integrate(*d1));

  UpdateOp op2{"Sale",
               {testing::T({testing::S("Printer"), testing::S("Zoe")})},
               {testing::T({testing::S("TV set"), testing::S("Mary")})}};
  Result<CanonicalDelta> d2 = source.Apply(op2);
  DWC_ASSERT_OK(d2);
  DWC_ASSERT_OK(warehouse->Integrate(*d2));

  Result<ExprRef> query = ParseExpr(
      "project[clerk](Sale) union project[clerk](select[age >= 30](Emp))");
  DWC_ASSERT_OK(query);
  Result<Relation> via_warehouse = warehouse->AnswerQuery(*query);
  DWC_ASSERT_OK(via_warehouse);
  Environment source_env = Environment::FromDatabase(source.db());
  Result<Relation> direct = EvalExpr(**query, source_env);
  DWC_ASSERT_OK(direct);
  EXPECT_TRUE(testing::RelationsEqual(*via_warehouse, *direct));
}

// True when some projection in `expr` sits directly over a union.
bool ProjectsOverUnion(const Expr& expr) {
  if (expr.kind() == Expr::Kind::kProject &&
      expr.child()->kind() == Expr::Kind::kUnion) {
    return true;
  }
  return (expr.left() != nullptr && ProjectsOverUnion(*expr.left())) ||
         (expr.right() != nullptr && ProjectsOverUnion(*expr.right()));
}

TEST_F(QueryTranslationTest, ProjectionsArePushedThroughInverseUnions) {
  // Emp's inverse is C_Emp ∪ π[clerk,age](Sold): a projection of Emp
  // becomes a union of projections, and π[clerk] over π[clerk,age]
  // collapses, so no operand of the union is built whole.
  for (const char* text :
       {"project[clerk](Emp) minus project[clerk](Sale)",
        "project[clerk](Sale) union project[clerk](Emp)",
        "project[age](Emp)"}) {
    Result<ExprRef> query = ParseExpr(text);
    DWC_ASSERT_OK(query);
    Result<ExprRef> raw = TranslateQueryRaw(*query, *spec_);
    DWC_ASSERT_OK(raw);
    EXPECT_TRUE(ProjectsOverUnion(**raw)) << text;
    Result<ExprRef> translated = TranslateQuery(*query, *spec_);
    DWC_ASSERT_OK(translated);
    EXPECT_FALSE(ProjectsOverUnion(**translated)) << (*translated)->ToString();
    ExpectCommutes(text);
  }
}

TEST_F(QueryTranslationTest, AnswerQueryEvaluatesTheTranslatedPlan) {
  // TranslateQuery and AnswerQuery share one translation pipeline: for a
  // query with no aggregate view both yield the same interned node.
  for (const char* text :
       {"project[clerk](Sale) union project[clerk](Emp)",
        "project[clerk](Emp) minus project[clerk](Sale)",
        "project[age](select[item = 'VCR'](Sale) join Emp)",
        "Sale join Emp"}) {
    Result<ExprRef> query = ParseExpr(text);
    DWC_ASSERT_OK(query);
    Result<ExprRef> translated = TranslateQuery(*query, *spec_);
    DWC_ASSERT_OK(translated);
    Result<ExprRef> planned =
        warehouse_->PlanQueryAt(warehouse_->PinSnapshot(), *query);
    DWC_ASSERT_OK(planned);
    EXPECT_EQ(planned->get(), translated->get()) << text;
  }
}

TEST_F(QueryTranslationTest, OneOffQueriesDoNotGrowTheInterner) {
  // Every translated plan is interned; once its caller drops it, its
  // entries go too. With the cache off nothing else holds a plan.
  ASSERT_EQ(warehouse_->subplan_cache().budget(), 0u);
  const size_t loaded = spec_->interner()->size();
  for (int64_t k = 0; k < 8000; ++k) {
    ExprRef query = Expr::Project(
        {"age"},
        Expr::Join(Expr::Select(Predicate::AttrEq(
                                    "item", Value::String(StrCat("item", k))),
                                Expr::Base("Sale")),
                   Expr::Base("Emp")));
    DWC_ASSERT_OK(warehouse_->AnswerQuery(query));
  }
  EXPECT_LE(spec_->interner()->size(), loaded + 4);
}

TEST_F(QueryTranslationTest, AntiQueryReadsTheComplementOnly) {
  // Emp and Sale both invert through Sold = Sale ⋈ Emp. C_Emp holds the
  // clerks Sold loses: those with no sale. So π[clerk](C_Emp) is disjoint
  // from π[clerk](Sold) and from π[clerk](C_Sale) (the dangling rule), and
  // the translated difference is its left side alone.
  const ExprRef query = Expr::Difference(
      Expr::Project({"clerk"}, Expr::Base("Emp")),
      Expr::Project({"clerk"}, Expr::Base("Sale")));
  const ExprRef plan = Expr::Project({"clerk"}, Expr::Base("C_Emp"));
  for (bool with_constraints : {true, false}) {
    SCOPED_TRACE(with_constraints ? "with constraints" : "no constraints");
    std::string script =
        "CREATE TABLE Emp(clerk STRING, age INT, KEY(clerk));\n"
        "CREATE TABLE Sale(item STRING, clerk STRING);\n";
    if (with_constraints) {
      script += "INCLUSION Sale(clerk) SUBSETOF Emp(clerk);\n";
    }
    // 200 clerks; 600 sales spread over the first 160 of them.
    for (int clerk = 0; clerk < 200; ++clerk) {
      script += StrCat("INSERT INTO Emp VALUES ('c", clerk, "', ",
                       20 + clerk % 40, ");\n");
    }
    for (int sale = 0; sale < 600; ++sale) {
      script += StrCat("INSERT INTO Sale VALUES ('i", sale, "', 'c",
                       sale % 160, "');\n");
    }
    script += "VIEW Sold AS Sale JOIN Emp;\n";
    ScriptContext context = MustRun(script);
    Result<WarehouseSpec> spec =
        SpecifyWarehouse(context.catalog, context.views);
    DWC_ASSERT_OK(spec);
    auto shared_spec = std::make_shared<WarehouseSpec>(std::move(spec).value());

    Result<ExprRef> translated = TranslateQuery(query, *shared_spec);
    DWC_ASSERT_OK(translated);
    EXPECT_TRUE((*translated)->Equals(*plan)) << (*translated)->ToString();
    // The rule belongs to PlanTranslation alone: the raw substitution keeps
    // its difference.
    Result<ExprRef> raw = TranslateQueryRaw(query, *shared_spec);
    DWC_ASSERT_OK(raw);
    EXPECT_EQ((*raw)->kind(), Expr::Kind::kDifference);

    Result<Warehouse> warehouse = Warehouse::Load(shared_spec, context.db);
    DWC_ASSERT_OK(warehouse);
    EvalStats stats;
    Result<Relation> via_warehouse = warehouse->AnswerQuery(query, &stats);
    DWC_ASSERT_OK(via_warehouse);
    EXPECT_EQ(stats.differences, 0u);
    Result<Relation> direct = Source(context.db).AnswerQuery(query);
    DWC_ASSERT_OK(direct);
    EXPECT_EQ(direct->size(), 40u);
    EXPECT_TRUE(testing::RelationsEqual(*via_warehouse, *direct));
  }
}

// The plan TranslateQuery gave before view matching: W^-1 substituted for
// every base name, then the same simplify / push-down / simplify passes.
ExprRef InvertedPlan(const ExprRef& query, const WarehouseSpec& spec) {
  SchemaResolver resolver = spec.WarehouseResolver();
  ExprRef plan = Simplify(SubstituteNames(query, spec.inverses()), &resolver);
  plan = PushDownSelections(plan, resolver);
  return Simplify(plan, &resolver);
}

TEST(QueryTranslationViewMatchingTest, ViewDefinitionsReadTheView) {
  struct Case {
    const char* view;
    const char* query;
    const char* plan;  // Empty: the inverted plan.
  };
  const Case cases[] = {
      // Figure 1: Sold = Sale JOIN Emp keeps every column.
      {"VIEW Sold AS Sale JOIN Emp;\n", "Sale join Emp", "Sold"},
      {"VIEW Sold AS Sale JOIN Emp;\n", "Emp join Sale",
       "project[clerk, age, item](Sold)"},
      {"VIEW Sold AS Sale JOIN Emp;\n",
       "project[age](select[item = 'PC'](Sale) join Emp)",
       "project[age](select[item = 'PC'](Sold))"},
      // Sold drops age, so a block that projects age keeps its inverse...
      {"VIEW Sold AS PROJECT[item, clerk](Sale JOIN Emp);\n",
       "project[item, age](Sale join Emp)", ""},
      // ...and one within Sold's columns reads Sold.
      {"VIEW Sold AS PROJECT[item, clerk](Sale JOIN Emp);\n",
       "project[clerk, item](Sale join Emp)", "project[clerk, item](Sold)"},
      // age < 40 does not imply Sold's age < 30; age < 25 does.
      {"VIEW Sold AS SELECT[age < 30](Sale JOIN Emp);\n",
       "select[age < 40](Sale join Emp)", ""},
      {"VIEW Sold AS SELECT[age < 30](Sale JOIN Emp);\n",
       "select[age < 25](Sale join Emp)", "select[age < 25](Sold)"},
      // Sold's own selection already applies the block's: no σ over Sold.
      {"VIEW Sold AS SELECT[age < 30](Sale JOIN Emp);\n",
       "select[age < 30](Sale join Emp)", "Sold"},
      // Sold applied the block's own selection before dropping age.
      {"VIEW Sold AS PROJECT[item, clerk](SELECT[age < 30](Sale JOIN Emp));\n",
       "project[item](select[age < 30](Sale join Emp))",
       "project[item](Sold)"},
  };
  for (bool with_constraints : {true, false}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(StrCat(c.query, " over ", c.view,
                          with_constraints ? "with" : "without",
                          " the inclusion dependency"));
      std::string script = Figure1Script(with_constraints);
      script.replace(script.find("VIEW"), std::string::npos, c.view);
      ScriptContext context = MustRun(script);
      Result<WarehouseSpec> spec =
          SpecifyWarehouse(context.catalog, context.views);
      DWC_ASSERT_OK(spec);
      auto shared_spec =
          std::make_shared<WarehouseSpec>(std::move(spec).value());
      Result<ExprRef> query = ParseExpr(c.query);
      DWC_ASSERT_OK(query);

      Result<ExprRef> translated = TranslateQuery(*query, *shared_spec);
      DWC_ASSERT_OK(translated);
      if (*c.plan == '\0') {
        EXPECT_TRUE(
            (*translated)->Equals(*InvertedPlan(*query, *shared_spec)))
            << (*translated)->ToString();
      } else {
        EXPECT_EQ((*translated)->ToString(), c.plan);
      }

      Result<Warehouse> warehouse = Warehouse::Load(shared_spec, context.db);
      DWC_ASSERT_OK(warehouse);
      Result<Relation> via_warehouse = warehouse->AnswerQuery(*query);
      DWC_ASSERT_OK(via_warehouse);
      Result<Relation> direct = Source(context.db).AnswerQuery(*query);
      DWC_ASSERT_OK(direct);
      EXPECT_TRUE(testing::RelationsEqual(*via_warehouse, *direct));
      // The answer keeps the query's own column order.
      EXPECT_TRUE(via_warehouse->schema() == direct->schema())
          << via_warehouse->schema().ToString();
    }
  }
}

// Among the stored views that answer a block, the one whose selection
// implies the others' wins: V3 holds only the X = 4 rows that V1 holds.
TEST(QueryTranslationViewMatchingTest, MostSelectiveViewWins) {
  ScriptContext context = MustRun(
      "CREATE TABLE R(K INT, X INT, KEY(K));\n"
      "CREATE TABLE S(K INT, Y INT);\n"
      "INSERT INTO R VALUES (1, 4), (2, 5), (3, 4);\n"
      "INSERT INTO S VALUES (1, 10), (2, 20), (3, 30), (3, 31);\n"
      "VIEW V1 AS R JOIN S;\n"
      "VIEW V3 AS SELECT[X = 4](S JOIN R);\n");
  Result<WarehouseSpec> spec =
      SpecifyWarehouse(context.catalog, context.views);
  DWC_ASSERT_OK(spec);
  auto shared_spec = std::make_shared<WarehouseSpec>(std::move(spec).value());
  Result<ExprRef> query = ParseExpr("select[X = 4](S join R)");
  DWC_ASSERT_OK(query);
  Result<ExprRef> translated = TranslateQuery(*query, *shared_spec);
  DWC_ASSERT_OK(translated);
  // V3's own selection is the block's, so V3 is read without re-filtering
  // every row by a predicate that holds on all of them.
  EXPECT_EQ((*translated)->ToString(), "V3");

  Result<Warehouse> warehouse = Warehouse::Load(shared_spec, context.db);
  DWC_ASSERT_OK(warehouse);
  Result<Relation> via_warehouse = warehouse->AnswerQuery(*query);
  DWC_ASSERT_OK(via_warehouse);
  Result<Relation> direct = Source(context.db).AnswerQuery(*query);
  DWC_ASSERT_OK(direct);
  EXPECT_TRUE(testing::RelationsEqual(*via_warehouse, *direct));
  EXPECT_EQ(via_warehouse->size(), 3u);
}

}  // namespace
}  // namespace dwc
