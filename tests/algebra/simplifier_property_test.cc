// Simplify() must be semantics-preserving: for random expressions and
// random states, the simplified expression evaluates to the same relation.
// Also checks idempotence (simplifying twice changes nothing).

#include "algebra/simplifier.h"

#include <gtest/gtest.h>

#include "algebra/evaluator.h"
#include "testing/property_util.h"
#include "testing/test_util.h"
#include "util/rng.h"
#include "workload/random_db.h"
#include "workload/random_views.h"

namespace dwc {
namespace {

using ::dwc::testing::CatalogShape;
using ::dwc::testing::MakeCatalog;

std::vector<std::string> NamesOf(const Schema& schema) {
  std::vector<std::string> names;
  for (const Attribute& attr : schema.attributes()) {
    names.push_back(attr.name);
  }
  return names;
}

// π_A(e1 ∪ e2) or π_A(e1 − e2) for two expressions over the attributes of
// `schema`: e2 lists its columns in reverse order, and A is a random
// non-empty subset of the columns in random order. The projection may be
// pushed through the union but never through the difference.
ExprRef ProjectOverSetOp(ExprRef e1, ExprRef e2, const Schema& schema,
                         Rng* rng) {
  std::vector<std::string> names = NamesOf(schema);
  std::vector<std::string> reversed(names.rbegin(), names.rend());
  std::vector<std::string> kept;
  for (const std::string& name : names) {
    if (rng->Chance(0.5)) {
      kept.push_back(name);
    }
  }
  if (kept.empty()) {
    kept.push_back(names[rng->Below(names.size())]);
  }
  for (size_t i = kept.size(); i > 1; --i) {
    std::swap(kept[i - 1], kept[rng->Below(i)]);
  }
  ExprRef reordered = Expr::Project(reversed, std::move(e2));
  return Expr::Project(
      kept, rng->Chance(0.5) ? Expr::Union(std::move(e1), std::move(reordered))
                             : Expr::Difference(std::move(e1),
                                                std::move(reordered)));
}

// Wraps random expressions with constructs the simplifier targets, so the
// rules actually fire: empty operands, trivial selections, stacked
// projections, self-unions, a projection over a union whose operands list
// their columns in different orders.
ExprRef Decorate(ExprRef expr, const Schema& schema, Rng* rng) {
  switch (rng->Below(7)) {
    case 0:
      return Expr::Select(Predicate::True(), expr);
    case 1:
      return Expr::Union(expr, Expr::Empty(schema));
    case 2:
      return Expr::Difference(expr, Expr::Empty(schema));
    case 3: {
      std::vector<std::string> all;
      for (const Attribute& attr : schema.attributes()) {
        all.push_back(attr.name);
      }
      return Expr::Project(all, expr);
    }
    case 4:
      return Expr::Union(expr, expr);
    case 5: {
      // Keeps the schema: π over (reversed e ∪ e) in e's own order.
      std::vector<std::string> names = NamesOf(schema);
      std::vector<std::string> reversed(names.rbegin(), names.rend());
      return Expr::Project(names,
                           Expr::Union(Expr::Project(reversed, expr), expr));
    }
    default:
      return expr;
  }
}

class SimplifierPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimplifierPropertyTest, SimplifiedExpressionIsEquivalent) {
  Rng rng(GetParam());
  for (CatalogShape shape : {CatalogShape::kChain, CatalogShape::kKeyedInds}) {
    std::shared_ptr<Catalog> catalog = MakeCatalog(shape);
    SchemaResolver resolver = ResolverFromCatalog(*catalog);
    Result<Database> db = GenerateRandomDatabase(catalog, &rng);
    DWC_ASSERT_OK(db);
    Environment env = Environment::FromDatabase(*db);

    for (int round = 0; round < 30; ++round) {
      Result<ExprRef> base_expr = GenerateRandomQuery(*catalog, &rng);
      DWC_ASSERT_OK(base_expr);
      Result<Schema> schema = InferSchema(**base_expr, resolver);
      if (!schema.ok()) {
        continue;
      }
      ExprRef expr = Decorate(*base_expr, *schema, &rng);
      expr = Decorate(expr, *schema, &rng);
      if (rng.Chance(0.4)) {
        // π_A(e1 ∪ e2) or π_A(e1 − e2), with a second random query of the
        // same attributes as e2 when one turns up, else e1 again.
        ExprRef other = *base_expr;
        for (int attempt = 0; attempt < 10; ++attempt) {
          Result<ExprRef> candidate = GenerateRandomQuery(*catalog, &rng);
          if (!candidate.ok()) {
            continue;
          }
          Result<Schema> candidate_schema = InferSchema(**candidate, resolver);
          if (candidate_schema.ok() && candidate_schema->SameAttrsAs(*schema)) {
            other = *candidate;
            break;
          }
        }
        expr = ProjectOverSetOp(expr, other, *schema, &rng);
      }

      ExprRef simplified = Simplify(expr, &resolver);
      Result<Relation> before = EvalExpr(*expr, env);
      Result<Relation> after = EvalExpr(*simplified, env);
      DWC_ASSERT_OK(before);
      DWC_ASSERT_OK(after);
      ASSERT_TRUE(testing::RelationsEqual(*after, *before))
          << "original:   " << expr->ToString()
          << "\nsimplified: " << simplified->ToString();

      // Idempotence.
      ExprRef twice = Simplify(simplified, &resolver);
      EXPECT_TRUE(twice->Equals(*simplified))
          << "not idempotent: " << simplified->ToString() << " vs "
          << twice->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifierPropertyTest,
                         ::testing::Values(3001, 3002, 3003, 3004));

TEST(SimplifierPropertyTest, SimplifyWithoutResolverIsAlsoSafe) {
  Rng rng(5005);
  std::shared_ptr<Catalog> catalog = MakeCatalog(CatalogShape::kChain);
  SchemaResolver resolver = ResolverFromCatalog(*catalog);
  Result<Database> db = GenerateRandomDatabase(catalog, &rng);
  DWC_ASSERT_OK(db);
  Environment env = Environment::FromDatabase(*db);
  for (int round = 0; round < 40; ++round) {
    Result<ExprRef> expr = GenerateRandomQuery(*catalog, &rng);
    DWC_ASSERT_OK(expr);
    ExprRef simplified = Simplify(*expr);  // No resolver.
    Result<Relation> before = EvalExpr(**expr, env);
    Result<Relation> after = EvalExpr(*simplified, env);
    DWC_ASSERT_OK(before);
    DWC_ASSERT_OK(after);
    ASSERT_TRUE(testing::RelationsEqual(*after, *before))
        << (*expr)->ToString();
  }
}

// Random union chains over a few same-attribute arms, with arms repeated,
// reordered and nested at random: the simplified chain must evaluate equal
// to the original and hold no arm twice.
TEST(SimplifierPropertyTest, RepeatedUnionArmsDrop) {
  Rng rng(6006);
  for (CatalogShape shape : {CatalogShape::kChain, CatalogShape::kKeyedInds}) {
    std::shared_ptr<Catalog> catalog = MakeCatalog(shape);
    SchemaResolver resolver = ResolverFromCatalog(*catalog);
    Result<Database> db = GenerateRandomDatabase(catalog, &rng);
    DWC_ASSERT_OK(db);
    Environment env = Environment::FromDatabase(*db);

    for (int round = 0; round < 30; ++round) {
      Result<ExprRef> base_expr = GenerateRandomQuery(*catalog, &rng);
      DWC_ASSERT_OK(base_expr);
      Result<Schema> schema = InferSchema(**base_expr, resolver);
      if (!schema.ok()) {
        continue;
      }
      // The pool: the query, its columns reversed, and up to two other
      // random queries over the same attributes.
      std::vector<std::string> names = NamesOf(*schema);
      std::vector<ExprRef> pool = {
          *base_expr,
          Expr::Project({names.rbegin(), names.rend()}, *base_expr)};
      for (int attempt = 0; attempt < 20 && pool.size() < 4; ++attempt) {
        Result<ExprRef> candidate = GenerateRandomQuery(*catalog, &rng);
        if (!candidate.ok()) {
          continue;
        }
        Result<Schema> candidate_schema = InferSchema(**candidate, resolver);
        if (candidate_schema.ok() && candidate_schema->SameAttrsAs(*schema)) {
          pool.push_back(*candidate);
        }
      }
      // 2–7 arms drawn with repetition, joined into a random tree shape.
      std::vector<ExprRef> arms;
      size_t count = 2 + rng.Below(6);
      for (size_t i = 0; i < count; ++i) {
        arms.push_back(pool[rng.Below(pool.size())]);
      }
      while (arms.size() > 1) {
        size_t at = rng.Below(arms.size() - 1);
        arms[at] = Expr::Union(arms[at], arms[at + 1]);
        arms.erase(arms.begin() + static_cast<std::ptrdiff_t>(at) + 1);
      }
      ExprRef expr = arms.front();

      ExprRef simplified = Simplify(expr, &resolver);
      Result<Relation> before = EvalExpr(*expr, env);
      Result<Relation> after = EvalExpr(*simplified, env);
      DWC_ASSERT_OK(before);
      DWC_ASSERT_OK(after);
      ASSERT_TRUE(testing::RelationsEqual(*after, *before))
          << "original:   " << expr->ToString()
          << "\nsimplified: " << simplified->ToString();
      EXPECT_EQ(testing::RepeatedUnionArm(simplified), "")
          << "simplified: " << simplified->ToString();
      EXPECT_TRUE(Simplify(simplified, &resolver)->Equals(*simplified));
    }
  }
}

}  // namespace
}  // namespace dwc
