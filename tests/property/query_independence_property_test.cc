// E9 (DESIGN.md) — Theorem 3.1 / Figure 2: the commuting diagram
// Q(d) = Q̄(W(d)) for randomly generated queries over random states.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "algebra/evaluator.h"
#include "algebra/implication.h"
#include "core/query_translation.h"
#include "core/warehouse_spec.h"
#include "testing/property_util.h"
#include "testing/test_util.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "warehouse/warehouse.h"
#include "workload/random_db.h"
#include "workload/random_views.h"

namespace dwc {
namespace {

using ::dwc::testing::CatalogShape;
using ::dwc::testing::CatalogShapeName;
using ::dwc::testing::MakeCatalog;

class QueryIndependencePropertyTest
    : public ::testing::TestWithParam<CatalogShape> {};

// The queries planted from a round's view definitions.
enum PlantedShape {
  kCommuted,          // The view's join with its operands reversed.
  kSelectOnTop,       // σ_r(def(V)), r over V's columns.
  kSelectOnOperand,   // def(V) with σ_r on one join operand.
  kNotImplied,        // def(V) with its selection swapped for σ_r on an
                      // operand, where r does not imply it.
  kProjectSubset,     // π_B(def(V)), B a subset of V's columns.
  kNested,            // π_X(def(V)) ∪ or − π_X(a random query).
  kPlantedShapes,
};

constexpr const char* kPlantedShapeNames[kPlantedShapes] = {
    "commuted",     "select_on_top",  "select_on_operand",
    "not_implied",  "project_subset", "nested"};

// A comparison on a random attribute of `attrs`, over the random
// database's value domains (random_db.h).
PredicateRef RandomComparison(const std::vector<Attribute>& attrs, Rng* rng) {
  const Attribute& attr = attrs[rng->Below(attrs.size())];
  switch (attr.type) {
    case ValueType::kInt:
      return Predicate::Cmp(Operand::Attr(attr.name),
                            rng->Chance(0.5) ? CmpOp::kEq : CmpOp::kLe,
                            Operand::Const(Value::Int(rng->Range(0, 15))));
    case ValueType::kString:
      return Predicate::AttrEq(attr.name,
                               Value::String(StrCat("s", rng->Range(0, 15))));
    default:
      return Predicate::True();
  }
}

// True when `plan` is [π] [σ] (name): a read of that one relation.
bool ReadsOnly(const ExprRef& plan, const std::string& name) {
  ExprRef node = plan;
  while (node->kind() == Expr::Kind::kSelect ||
         node->kind() == Expr::Kind::kProject) {
    node = node->child();
  }
  return node->kind() == Expr::Kind::kBase && node->base_name() == name;
}

// `view`'s definition rebuilt over `leaves` (in join order), with
// `predicate` (none when null) over the join and the view's projection.
ExprRef Definition(const std::vector<ExprRef>& leaves,
                   const PredicateRef& predicate, const PsjView& view,
                   const Schema& schema) {
  ExprRef expr = Expr::JoinAll(leaves);
  if (predicate != nullptr) {
    expr = Expr::Select(predicate, expr);
  }
  if (!view.is_sj) {
    std::vector<std::string> names;
    for (const Attribute& attr : schema.attributes()) {
      names.push_back(attr.name);
    }
    expr = Expr::Project(std::move(names), expr);
  }
  return expr;
}

// The attributes of `schema` that `attrs` keeps.
std::vector<Attribute> Visible(const Schema& schema, const AttrSet& attrs) {
  std::vector<Attribute> visible;
  for (const Attribute& attr : schema.attributes()) {
    if (attrs.count(attr.name) > 0) {
      visible.push_back(attr);
    }
  }
  return visible;
}

// Theorem 3.1 for queries that contain a stored view's definition: view
// matching must answer them as direct evaluation does, and a planted
// definition must plan to a read of its view.
TEST_P(QueryIndependencePropertyTest, PlantedViewDefinitionsCommute) {
  Rng rng(4242 + static_cast<uint64_t>(GetParam()));
  std::shared_ptr<Catalog> catalog = MakeCatalog(GetParam());
  std::array<int, kPlantedShapes> planted{};
  std::array<int, kPlantedShapes> read_the_view{};

  for (int round = 0; round < 12; ++round) {
    Result<std::vector<ViewDef>> views =
        GenerateRandomPsjViews(*catalog, &rng);
    DWC_ASSERT_OK(views);
    Result<WarehouseSpec> spec = SpecifyWarehouse(catalog, *views);
    DWC_ASSERT_OK(spec);
    auto spec_ptr = std::make_shared<WarehouseSpec>(std::move(spec).value());
    Result<Database> db = GenerateRandomDatabase(catalog, &rng);
    DWC_ASSERT_OK(db);
    Result<Warehouse> warehouse = Warehouse::Load(spec_ptr, *db);
    DWC_ASSERT_OK(warehouse);
    Environment source_env = Environment::FromDatabase(*db);

    for (const PsjView& view : spec_ptr->psj_views()) {
      const Schema& schema = *spec_ptr->FindWarehouseSchema(view.name);
      const bool selects = view.predicate->kind() != Predicate::Kind::kTrue;
      const PredicateRef own = selects ? view.predicate : nullptr;
      std::vector<ExprRef> leaves;
      for (const std::string& base : view.bases) {
        leaves.push_back(Expr::Base(base));
      }
      // One join operand and the columns of it that the view keeps.
      const size_t operand = rng.Below(leaves.size());
      const std::vector<Attribute> operand_attrs = Visible(
          *catalog->FindSchema(view.bases[operand]), view.attrs);

      std::vector<std::pair<PlantedShape, ExprRef>> queries;
      std::vector<ExprRef> reversed(leaves.rbegin(), leaves.rend());
      queries.emplace_back(kCommuted,
                           Definition(reversed, own, view, schema));
      queries.emplace_back(
          kSelectOnTop,
          Expr::Select(RandomComparison(schema.attributes(), &rng),
                       view.expr));
      if (!operand_attrs.empty()) {
        std::vector<ExprRef> selected = leaves;
        PredicateRef r = RandomComparison(operand_attrs, &rng);
        selected[operand] = Expr::Select(r, leaves[operand]);
        queries.emplace_back(kSelectOnOperand,
                             Definition(selected, own, view, schema));
        if (selects && !Implies(r, view.predicate)) {
          queries.emplace_back(kNotImplied,
                               Definition(selected, nullptr, view, schema));
        }
      }
      std::vector<std::string> subset;
      for (const Attribute& attr : schema.attributes()) {
        if (rng.Chance(0.5)) {
          subset.push_back(attr.name);
        }
      }
      if (subset.empty()) {
        subset.push_back(schema.attribute(0).name);
      }
      std::reverse(subset.begin(), subset.end());
      queries.emplace_back(kProjectSubset,
                           Expr::Project(subset, view.expr));
      Result<ExprRef> other = GenerateRandomQuery(*catalog, &rng);
      DWC_ASSERT_OK(other);
      Result<Schema> other_schema =
          InferSchema(**other, ResolverFromCatalog(*catalog));
      DWC_ASSERT_OK(other_schema);
      std::vector<std::string> common;
      for (const Attribute& attr : schema.attributes()) {
        std::optional<size_t> index = other_schema->IndexOf(attr.name);
        if (index.has_value() &&
            other_schema->attribute(*index).type == attr.type) {
          common.push_back(attr.name);
        }
      }
      if (!common.empty()) {
        ExprRef left = Expr::Project(common, view.expr);
        ExprRef right = Expr::Project(common, *other);
        queries.emplace_back(kNested, rng.Chance(0.5)
                                          ? Expr::Union(left, right)
                                          : Expr::Difference(left, right));
      }

      for (const auto& [shape, query] : queries) {
        SCOPED_TRACE(StrCat("round ", round, ", ", kPlantedShapeNames[shape],
                            ": ", query->ToString(), "\nwarehouse:\n",
                            spec_ptr->ToString()));
        ++planted[shape];
        Result<ExprRef> plan = TranslateQuery(query, *spec_ptr);
        DWC_ASSERT_OK(plan);
        const ExprRef& read = shape == kNested ? (*plan)->left() : *plan;
        if (read != nullptr && ReadsOnly(read, view.name)) {
          ++read_the_view[shape];
        }
        // Only the view's own selection, or a stronger one, lets a plan
        // read the view alone.
        if (shape == kNotImplied) {
          EXPECT_FALSE(ReadsOnly(*plan, view.name)) << (*plan)->ToString();
        }
        Result<Relation> direct = EvalExpr(*query, source_env);
        DWC_ASSERT_OK(direct);
        Result<Relation> via_warehouse = warehouse->AnswerQuery(query);
        DWC_ASSERT_OK(via_warehouse);
        ASSERT_TRUE(testing::RelationsEqual(*via_warehouse, *direct))
            << "plan " << (*plan)->ToString();
        EXPECT_TRUE(via_warehouse->schema() == direct->schema())
            << via_warehouse->schema().ToString() << " vs "
            << direct->schema().ToString();
      }
    }
  }
  for (int shape = 0; shape < kPlantedShapes; ++shape) {
    SCOPED_TRACE(kPlantedShapeNames[shape]);
    EXPECT_GT(planted[shape], 0);
    if (shape != kNotImplied) {
      EXPECT_GT(read_the_view[shape], 0);
    }
  }
}

// True when `plan` holds a difference anywhere.
bool HasDifference(const ExprRef& plan) {
  if (plan->kind() == Expr::Kind::kDifference) {
    return true;
  }
  for (const ExprRef& child : {plan->left(), plan->right()}) {
    if (child != nullptr && HasDifference(child)) {
      return true;
    }
  }
  return false;
}

// Theorem 3.1 for anti queries, the shape the disjointness facts rewrite:
// π_J(R) − π_J(S) for every ordered pair of bases R, S that a view joins,
// J their shared columns, alone and under ∪ with a random query. Every
// answer must equal direct evaluation. A plain plant over a two-way view
// V = R ⋈ S with no selection that keeps every column, where V is the only
// view over R or S and the only view their inverses read, must plan to no
// difference: the difference there is
// [π_J(C_R) ∪] π_J(V) − ([π_J(C_S) ∪] π_J(V)), and every right arm either
// equals a left arm or is disjoint from all of them. (Another view over R
// or S, or a cover join in an inverse, adds arms that no fact speaks for.)
TEST_P(QueryIndependencePropertyTest, PlantedAntiQueriesCommute) {
  Rng rng(7331 + static_cast<uint64_t>(GetParam()));
  std::shared_ptr<Catalog> catalog = MakeCatalog(GetParam());
  int planted = 0;
  int rewritten = 0;
  int nested = 0;

  for (int round = 0; round < 48; ++round) {
    Result<std::vector<ViewDef>> views =
        GenerateRandomPsjViews(*catalog, &rng);
    DWC_ASSERT_OK(views);
    Result<WarehouseSpec> spec = SpecifyWarehouse(catalog, *views);
    DWC_ASSERT_OK(spec);
    auto spec_ptr = std::make_shared<WarehouseSpec>(std::move(spec).value());
    Result<Database> db = GenerateRandomDatabase(catalog, &rng);
    DWC_ASSERT_OK(db);
    Result<Warehouse> warehouse = Warehouse::Load(spec_ptr, *db);
    DWC_ASSERT_OK(warehouse);
    Environment source_env = Environment::FromDatabase(*db);

    for (const PsjView& view : spec_ptr->psj_views()) {
      for (const std::string& r : view.bases) {
        for (const std::string& s : view.bases) {
          std::vector<std::string> on;
          for (const Attribute& attr : catalog->FindSchema(r)->attributes()) {
            if (r != s && catalog->FindSchema(s)->Contains(attr.name)) {
              on.push_back(attr.name);
            }
          }
          if (on.empty()) {
            continue;
          }
          // Whether the plain plant must lose its difference.
          bool only_view = view.bases.size() == 2 && view.is_sj &&
                           view.predicate->kind() == Predicate::Kind::kTrue;
          for (const PsjView& other : spec_ptr->psj_views()) {
            only_view = only_view && (&other == &view ||
                                      (!other.InvolvesBase(r) &&
                                       !other.InvolvesBase(s)));
          }
          const ComplementResult& complement = spec_ptr->complement();
          for (const std::string& base : {r, s}) {
            for (const std::string& name :
                 (*spec_ptr->FindInverse(base))->ReferencedNames()) {
              only_view = only_view &&
                          (name == view.name ||
                           name == complement.FindBase(r)->complement_name ||
                           name == complement.FindBase(s)->complement_name);
            }
          }
          const ExprRef anti =
              Expr::Difference(Expr::Project(on, Expr::Base(r)),
                               Expr::Project(on, Expr::Base(s)));
          std::vector<std::pair<bool, ExprRef>> queries = {{false, anti}};
          Result<ExprRef> other = GenerateRandomQuery(*catalog, &rng);
          DWC_ASSERT_OK(other);
          Result<Schema> other_schema =
              InferSchema(**other, ResolverFromCatalog(*catalog));
          DWC_ASSERT_OK(other_schema);
          if (other_schema->ContainsAll(AttrSet(on.begin(), on.end()))) {
            queries.emplace_back(
                true, Expr::Union(anti, Expr::Project(on, *other)));
            ++nested;
          }
          for (const auto& [under_union, query] : queries) {
            SCOPED_TRACE(StrCat("round ", round, ": ", query->ToString(),
                                "\nwarehouse:\n", spec_ptr->ToString()));
            ++planted;
            Result<ExprRef> plan = TranslateQuery(query, *spec_ptr);
            DWC_ASSERT_OK(plan);
            if (!under_union && only_view) {
              ++rewritten;
              EXPECT_FALSE(HasDifference(*plan)) << (*plan)->ToString();
            }
            Result<Relation> direct = EvalExpr(*query, source_env);
            DWC_ASSERT_OK(direct);
            Result<Relation> via_warehouse = warehouse->AnswerQuery(query);
            DWC_ASSERT_OK(via_warehouse);
            ASSERT_TRUE(testing::RelationsEqual(*via_warehouse, *direct))
                << "plan " << (*plan)->ToString();
          }
        }
      }
    }
  }
  EXPECT_GT(planted, 0);
  EXPECT_GT(rewritten, 0);
  EXPECT_GT(nested, 0);
}

TEST_P(QueryIndependencePropertyTest, DiagramCommutes) {
  Rng rng(2024 + static_cast<uint64_t>(GetParam()));
  std::shared_ptr<Catalog> catalog = MakeCatalog(GetParam());

  for (int round = 0; round < 8; ++round) {
    Result<std::vector<ViewDef>> views =
        GenerateRandomPsjViews(*catalog, &rng);
    DWC_ASSERT_OK(views);
    Result<WarehouseSpec> spec = SpecifyWarehouse(catalog, *views);
    DWC_ASSERT_OK(spec);
    auto spec_ptr = std::make_shared<WarehouseSpec>(std::move(spec).value());

    Result<Database> db = GenerateRandomDatabase(catalog, &rng);
    DWC_ASSERT_OK(db);
    Result<Warehouse> warehouse = Warehouse::Load(spec_ptr, *db);
    DWC_ASSERT_OK(warehouse);
    Environment source_env = Environment::FromDatabase(*db);

    for (int q = 0; q < 10; ++q) {
      Result<ExprRef> query = GenerateRandomQuery(*catalog, &rng);
      DWC_ASSERT_OK(query);
      Result<Relation> direct = EvalExpr(**query, source_env);
      DWC_ASSERT_OK(direct);
      Result<Relation> via_warehouse = warehouse->AnswerQuery(*query);
      DWC_ASSERT_OK(via_warehouse);
      ASSERT_TRUE(testing::RelationsEqual(*via_warehouse, *direct))
          << "round " << round << " query " << (*query)->ToString()
          << "\nwarehouse:\n"
          << spec_ptr->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QueryIndependencePropertyTest,
    ::testing::Values(CatalogShape::kChain, CatalogShape::kKeyed,
                      CatalogShape::kKeyedInds),
    [](const ::testing::TestParamInfo<CatalogShape>& info) {
      return CatalogShapeName(info.param);
    });

}  // namespace
}  // namespace dwc
