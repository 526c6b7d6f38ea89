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

// The arm pool for random union chains: `base` (a query with output
// `schema`), its columns reversed, and up to two other random queries over
// the same attributes.
std::vector<ExprRef> ArmPool(const ExprRef& base, const Schema& schema,
                             const Catalog& catalog,
                             const SchemaResolver& resolver, Rng* rng) {
  std::vector<std::string> names = NamesOf(schema);
  std::vector<ExprRef> pool = {base,
                               Expr::Project({names.rbegin(), names.rend()},
                                             base)};
  for (int attempt = 0; attempt < 20 && pool.size() < 4; ++attempt) {
    Result<ExprRef> candidate = GenerateRandomQuery(catalog, rng);
    if (!candidate.ok()) {
      continue;
    }
    Result<Schema> candidate_schema = InferSchema(**candidate, resolver);
    if (candidate_schema.ok() && candidate_schema->SameAttrsAs(schema)) {
      pool.push_back(*candidate);
    }
  }
  return pool;
}

// `count` arms drawn from `pool` with repetition, joined by ∪ into a random
// tree shape.
ExprRef RandomChain(const std::vector<ExprRef>& pool, size_t count, Rng* rng) {
  std::vector<ExprRef> arms;
  for (size_t i = 0; i < count; ++i) {
    arms.push_back(pool[rng->Below(pool.size())]);
  }
  while (arms.size() > 1) {
    size_t at = rng->Below(arms.size() - 1);
    arms[at] = Expr::Union(arms[at], arms[at + 1]);
    arms.erase(arms.begin() + static_cast<std::ptrdiff_t>(at) + 1);
  }
  return arms.front();
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
  // The differences draw from their own stream, so `rng` yields the same
  // queries as it would without them.
  Rng chain_rng(5006);
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

    // A difference of two union chains that share arms: without schemas
    // the difference keeps its left chain (only its own repeats drop).
    Result<Schema> schema = InferSchema(**expr, resolver);
    if (!schema.ok()) {
      continue;
    }
    std::vector<ExprRef> pool =
        ArmPool(*expr, *schema, *catalog, resolver, &chain_rng);
    ExprRef left = RandomChain(pool, 1 + chain_rng.Below(4), &chain_rng);
    ExprRef difference = Expr::Difference(
        left, RandomChain(pool, 1 + chain_rng.Below(4), &chain_rng));
    ExprRef kept = Simplify(difference);
    Result<Relation> difference_before = EvalExpr(*difference, env);
    Result<Relation> difference_after = EvalExpr(*kept, env);
    DWC_ASSERT_OK(difference_before);
    DWC_ASSERT_OK(difference_after);
    ASSERT_TRUE(
        testing::RelationsEqual(*difference_after, *difference_before))
        << difference->ToString();
    ASSERT_EQ(kept->kind(), Expr::Kind::kDifference) << kept->ToString();
    EXPECT_TRUE(kept->left()->Equals(*Simplify(left))) << kept->ToString();
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
      std::vector<ExprRef> pool =
          ArmPool(*base_expr, *schema, *catalog, resolver, &rng);
      // 2–7 arms drawn with repetition, joined into a random tree shape.
      ExprRef expr = RandomChain(pool, 2 + rng.Below(6), &rng);

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

// Random differences of two union chains over the same arm pool: every
// left arm that Equals a right arm drops, unless dropping would change the
// left's column order. The result evaluates equal, keeps the output schema
// and is a fixed point.
TEST(SimplifierPropertyTest, LeftArmsSharedWithTheRightDrop) {
  Rng rng(7007);
  int fired = 0;
  int guarded = 0;
  for (CatalogShape shape : {CatalogShape::kChain, CatalogShape::kKeyedInds}) {
    std::shared_ptr<Catalog> catalog = MakeCatalog(shape);
    SchemaResolver resolver = ResolverFromCatalog(*catalog);
    Result<Database> db = GenerateRandomDatabase(catalog, &rng);
    DWC_ASSERT_OK(db);
    Environment env = Environment::FromDatabase(*db);

    for (int round = 0; round < 40; ++round) {
      Result<ExprRef> base_expr = GenerateRandomQuery(*catalog, &rng);
      DWC_ASSERT_OK(base_expr);
      Result<Schema> schema = InferSchema(**base_expr, resolver);
      if (!schema.ok()) {
        continue;
      }
      std::vector<ExprRef> pool =
          ArmPool(*base_expr, *schema, *catalog, resolver, &rng);
      ExprRef left = RandomChain(pool, 1 + rng.Below(4), &rng);
      ExprRef right = RandomChain(pool, 1 + rng.Below(4), &rng);
      ExprRef expr = Expr::Difference(left, right);

      ExprRef simplified = Simplify(expr, &resolver);
      Result<Relation> before = EvalExpr(*expr, env);
      Result<Relation> after = EvalExpr(*simplified, env);
      DWC_ASSERT_OK(before);
      DWC_ASSERT_OK(after);
      ASSERT_TRUE(testing::RelationsEqual(*after, *before))
          << "original:   " << expr->ToString()
          << "\nsimplified: " << simplified->ToString();
      Result<Schema> schema_before = InferSchema(*expr, resolver);
      Result<Schema> schema_after = InferSchema(*simplified, resolver);
      DWC_ASSERT_OK(schema_before);
      DWC_ASSERT_OK(schema_after);
      EXPECT_EQ(schema_after->ToString(), schema_before->ToString())
          << "simplified: " << simplified->ToString();
      EXPECT_TRUE(Simplify(simplified, &resolver)->Equals(*simplified))
          << "not idempotent: " << simplified->ToString();

      if (simplified->kind() != Expr::Kind::kDifference) {
        ++fired;  // Every left arm dropped.
        continue;
      }
      std::vector<ExprRef> left_arms;
      std::vector<ExprRef> right_arms;
      testing::CollectUnionArms(simplified->left(), &left_arms);
      testing::CollectUnionArms(simplified->right(), &right_arms);
      auto shared = [&](const ExprRef& arm) {
        for (const ExprRef& other : right_arms) {
          if (arm->Equals(*other)) {
            return true;
          }
        }
        return false;
      };
      std::vector<ExprRef> simplified_left_arms;
      testing::CollectUnionArms(Simplify(left, &resolver),
                                &simplified_left_arms);
      if (left_arms.size() < simplified_left_arms.size()) {
        ++fired;
      }
      // A shared arm may stay only when the first unshared arm, which would
      // lead the kept chain, lists the columns in another order.
      const ExprRef* lead = nullptr;
      bool any_shared = false;
      for (const ExprRef& arm : left_arms) {
        if (shared(arm)) {
          any_shared = true;
        } else if (lead == nullptr) {
          lead = &arm;
        }
      }
      if (!any_shared) {
        continue;
      }
      ++guarded;
      ASSERT_NE(lead, nullptr) << simplified->ToString();
      Result<Schema> lead_schema = InferSchema(**lead, resolver);
      DWC_ASSERT_OK(lead_schema);
      EXPECT_NE(lead_schema->ToString(), schema_before->ToString())
          << "shared arm kept: " << simplified->ToString();
    }
  }
  // Both outcomes occur: the rule fires, and the order guard holds it.
  EXPECT_GT(fired, 0);
  EXPECT_GT(guarded, 0);
}

}  // namespace
}  // namespace dwc
