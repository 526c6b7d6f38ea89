#include "relational/relation.h"

#include <gtest/gtest.h>

#include <utility>

#include "testing/test_util.h"

namespace dwc {
namespace {

using ::dwc::testing::D;
using ::dwc::testing::I;
using ::dwc::testing::S;
using ::dwc::testing::T;

Schema AbSchema() {
  return Schema({{"a", ValueType::kInt}, {"b", ValueType::kString}});
}

TEST(RelationTest, InsertEraseContains) {
  Relation rel(AbSchema());
  EXPECT_TRUE(rel.empty());
  EXPECT_TRUE(rel.Insert(T({I(1), S("x")})));
  EXPECT_FALSE(rel.Insert(T({I(1), S("x")})));  // Set semantics.
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(T({I(1), S("x")})));
  EXPECT_FALSE(rel.Contains(T({I(2), S("x")})));
  EXPECT_TRUE(rel.Erase(T({I(1), S("x")})));
  EXPECT_FALSE(rel.Erase(T({I(1), S("x")})));
  EXPECT_TRUE(rel.empty());
}

TEST(RelationTest, IndexLookupAndIncrementalMaintenance) {
  Relation rel(AbSchema());
  rel.Insert(T({I(1), S("x")}));
  rel.Insert(T({I(1), S("y")}));
  rel.Insert(T({I(2), S("x")}));

  const Relation::Index& index = rel.GetIndex({"a"});
  ASSERT_EQ(index.size(), 2u);
  EXPECT_EQ(index.at(T({I(1)})).size(), 2u);
  EXPECT_EQ(index.at(T({I(2)})).size(), 1u);

  // Mutations must keep the existing index correct.
  rel.Insert(T({I(1), S("z")}));
  EXPECT_EQ(index.at(T({I(1)})).size(), 3u);
  rel.Erase(T({I(1), S("x")}));
  EXPECT_EQ(index.at(T({I(1)})).size(), 2u);
  rel.Erase(T({I(2), S("x")}));
  EXPECT_EQ(index.find(T({I(2)})), index.end());
}

TEST(RelationTest, MultiAttributeIndexKeyOrder) {
  Relation rel(AbSchema());
  rel.Insert(T({I(1), S("x")}));
  const Relation::Index& index = rel.GetIndex({"b", "a"});
  // Key order follows the requested attribute order.
  EXPECT_NE(index.find(T({S("x"), I(1)})), index.end());
  EXPECT_EQ(index.find(T({I(1), S("x")})), index.end());
}

TEST(RelationTest, CopyDropsIndexesButKeepsContent) {
  Relation rel(AbSchema());
  rel.Insert(T({I(1), S("x")}));
  rel.GetIndex({"a"});
  Relation copy = rel;
  EXPECT_TRUE(copy.SameContentAs(rel));
  // The copy builds its own index lazily and stays correct.
  const Relation::Index& index = copy.GetIndex({"a"});
  EXPECT_EQ(index.at(T({I(1)})).size(), 1u);
}

TEST(RelationTest, CopiesShareTuplesUntilEitherSideMutates) {
  Relation original(AbSchema());
  original.Insert(T({I(1), S("x")}));
  original.Insert(T({I(2), S("y")}));

  // A mutated copy leaves the original unchanged.
  Relation copy = original;
  EXPECT_EQ(&copy.tuples(), &original.tuples());  // Shared, not copied.
  EXPECT_TRUE(copy.Insert(T({I(3), S("z")})));
  EXPECT_NE(&copy.tuples(), &original.tuples());
  EXPECT_TRUE(copy.Erase(T({I(1), S("x")})));
  EXPECT_EQ(original.size(), 2u);
  EXPECT_TRUE(original.Contains(T({I(1), S("x")})));
  EXPECT_FALSE(original.Contains(T({I(3), S("z")})));
  EXPECT_EQ(copy.size(), 2u);

  // A mutated original leaves the copy unchanged.
  Relation assigned(AbSchema());
  assigned = original;
  EXPECT_EQ(&assigned.tuples(), &original.tuples());
  EXPECT_TRUE(original.Erase(*original.tuples().begin()));
  original.Clear();
  EXPECT_TRUE(original.empty());
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_TRUE(assigned.Contains(T({I(1), S("x")})));
  EXPECT_TRUE(assigned.Contains(T({I(2), S("y")})));

  // Mutations that change nothing leave the tuples shared.
  Relation again = assigned;
  EXPECT_FALSE(again.Insert(T({I(1), S("x")})));
  EXPECT_FALSE(again.Erase(T({I(9), S("q")})));
  EXPECT_EQ(&again.tuples(), &assigned.tuples());
}

TEST(RelationTest, IndexedRelationProbesCorrectlyAfterCopyAndMutation) {
  Relation rel(AbSchema());
  rel.Insert(T({I(1), S("x")}));
  rel.Insert(T({I(2), S("x")}));
  EXPECT_EQ(rel.GetIndex({"a"}).at(T({I(1)})).size(), 1u);
  Relation copy = rel;
  EXPECT_EQ(copy.GetIndex({"b"}).at(T({S("x")})).size(), 2u);

  // Both sides mutate while shared; each rebuilds its indexes over its own
  // tuples.
  rel.Insert(T({I(1), S("y")}));
  rel.Erase(T({I(2), S("x")}));
  const Relation::Index& by_a = rel.GetIndex({"a"});
  EXPECT_EQ(by_a.at(T({I(1)})).size(), 2u);
  EXPECT_EQ(by_a.find(T({I(2)})), by_a.end());
  for (const Tuple* tuple : by_a.at(T({I(1)}))) {
    EXPECT_TRUE(rel.Contains(*tuple));
  }
  copy.Insert(T({I(3), S("x")}));
  EXPECT_EQ(copy.GetIndex({"b"}).at(T({S("x")})).size(), 3u);
  EXPECT_EQ(copy.GetIndex({"a"}).at(T({I(2)})).size(), 1u);

  // Once unshared, mutations maintain the rebuilt index in place.
  rel.Insert(T({I(1), S("z")}));
  EXPECT_EQ(by_a.at(T({I(1)})).size(), 3u);
}

TEST(RelationTest, MovedFromRelationIsEmptyAndReusable) {
  Relation source(AbSchema());
  source.Insert(T({I(1), S("x")}));
  source.GetIndex({"a"});
  Relation moved = std::move(source);
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved.GetIndex({"a"}).size(), 1u);
  // NOLINTBEGIN(bugprone-use-after-move)
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.size(), 0u);
  source = Relation(AbSchema());
  EXPECT_TRUE(source.Insert(T({I(2), S("y")})));
  EXPECT_EQ(source.GetIndex({"a"}).at(T({I(2)})).size(), 1u);
  EXPECT_FALSE(moved.Contains(T({I(2), S("y")})));

  Relation target(AbSchema());
  target.Insert(T({I(7), S("t")}));
  target = std::move(source);
  EXPECT_TRUE(source.empty());
  source = moved;
  EXPECT_TRUE(source.SameContentAs(moved));
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(target.size(), 1u);
  EXPECT_TRUE(target.Contains(T({I(2), S("y")})));

  Relation fresh;
  EXPECT_TRUE(fresh.empty());
  fresh = target;
  EXPECT_TRUE(fresh.SameContentAs(target));
}

TEST(RelationTest, DeepCopyOwnsItsTuples) {
  Relation rel(AbSchema());
  rel.Insert(T({I(1), S("x")}));
  Relation deep = rel.DeepCopy();
  EXPECT_NE(&deep.tuples(), &rel.tuples());
  EXPECT_NE(deep.uid(), rel.uid());
  EXPECT_TRUE(deep.SameContentAs(rel));
  deep.Insert(T({I(2), S("y")}));
  EXPECT_EQ(rel.size(), 1u);
}

TEST(RelationTest, SameContentAsIgnoresColumnOrder) {
  Relation ab(AbSchema());
  ab.Insert(T({I(1), S("x")}));
  Relation ba(Schema({{"b", ValueType::kString}, {"a", ValueType::kInt}}));
  ba.Insert(T({S("x"), I(1)}));
  EXPECT_TRUE(ab.SameContentAs(ba));
  ba.Insert(T({S("y"), I(2)}));
  EXPECT_FALSE(ab.SameContentAs(ba));
}

TEST(RelationTest, AlignToReordersColumns) {
  Relation ba(Schema({{"b", ValueType::kString}, {"a", ValueType::kInt}}));
  ba.Insert(T({S("x"), I(1)}));
  Result<Relation> aligned = ba.AlignTo(AbSchema());
  DWC_ASSERT_OK(aligned);
  EXPECT_TRUE(aligned->Contains(T({I(1), S("x")})));

  Relation other(Schema({{"c", ValueType::kInt}}));
  EXPECT_FALSE(other.AlignTo(AbSchema()).ok());
}

TEST(RelationTest, SortedTuplesDeterministic) {
  Relation rel(AbSchema());
  rel.Insert(T({I(2), S("b")}));
  rel.Insert(T({I(1), S("z")}));
  rel.Insert(T({I(1), S("a")}));
  std::vector<Tuple> sorted = rel.SortedTuples();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], T({I(1), S("a")}));
  EXPECT_EQ(sorted[1], T({I(1), S("z")}));
  EXPECT_EQ(sorted[2], T({I(2), S("b")}));
}

TEST(RelationTest, ClearDropsEverything) {
  Relation rel(AbSchema());
  rel.Insert(T({I(1), S("x")}));
  rel.GetIndex({"a"});
  rel.Clear();
  EXPECT_TRUE(rel.empty());
  EXPECT_TRUE(rel.GetIndex({"a"}).empty());
}

TEST(TupleTest, ProjectAndHash) {
  Tuple tuple = T({I(1), S("x"), I(9)});
  Tuple projected = tuple.Project({2, 0});
  EXPECT_EQ(projected, T({I(9), I(1)}));
  EXPECT_EQ(tuple.Hash(), T({I(1), S("x"), I(9)}).Hash());
  EXPECT_EQ(tuple.ToString(), "<1, 'x', 9>");
}

TEST(TupleTest, CachedHashSurvivesRebuilds) {
  // The hash is computed once at construction; regression check that every
  // path that *rebuilds* tuples (Project, AlignTo's column reorder) yields
  // tuples whose cached hash equals a fresh construction's — hash joins key
  // on Tuple::Hash(), so a stale or path-dependent cache would silently
  // drop matches.
  Tuple tuple = T({I(7), S("q"), I(3)});
  Tuple projected = tuple.Project({1, 2});
  EXPECT_EQ(projected.Hash(), T({S("q"), I(3)}).Hash());
  EXPECT_EQ(tuple.Project({0, 1, 2}).Hash(), tuple.Hash());

  Relation rel(AbSchema());
  rel.Insert(T({I(1), S("x")}));
  rel.Insert(T({I(2), S("y")}));
  Schema flipped({{"b", ValueType::kString}, {"a", ValueType::kInt}});
  Result<Relation> aligned = rel.AlignTo(flipped);
  ASSERT_TRUE(aligned.ok()) << aligned.status().ToString();
  for (const Tuple& t : aligned->tuples()) {
    EXPECT_EQ(t.Hash(), Tuple(t.values()).Hash());
  }
  EXPECT_TRUE(aligned->Contains(T({S("x"), I(1)})));  // Set lookup via hash.
}

TEST(SchemaTest, CreateRejectsDuplicates) {
  Result<Schema> bad = Schema::Create(
      {{"a", ValueType::kInt}, {"a", ValueType::kString}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, LookupsAndCommonAttrs) {
  Schema ab = AbSchema();
  Schema bc({{"b", ValueType::kString}, {"c", ValueType::kInt}});
  EXPECT_EQ(ab.IndexOf("b"), 1u);
  EXPECT_FALSE(ab.IndexOf("zz").has_value());
  EXPECT_TRUE(ab.ContainsAll({"a", "b"}));
  EXPECT_FALSE(ab.ContainsAll({"a", "c"}));
  EXPECT_EQ(ab.CommonWith(bc), std::vector<std::string>{"b"});
  EXPECT_EQ(ab.attr_names(), (AttrSet{"a", "b"}));
  Result<std::vector<size_t>> idx = ab.IndicesOf({"b", "a"});
  DWC_ASSERT_OK(idx);
  EXPECT_EQ(*idx, (std::vector<size_t>{1, 0}));
  EXPECT_FALSE(ab.IndicesOf({"nope"}).ok());
}

TEST(SchemaTest, SameAttrsAsIgnoresOrderButNotTypes) {
  Schema ab = AbSchema();
  Schema ba({{"b", ValueType::kString}, {"a", ValueType::kInt}});
  Schema ab_badtype({{"a", ValueType::kString}, {"b", ValueType::kString}});
  EXPECT_TRUE(ab.SameAttrsAs(ba));
  EXPECT_FALSE(ab.SameAttrsAs(ab_badtype));
  EXPECT_FALSE(ab == ba);
  EXPECT_EQ(ab.ToString(), "(a INT, b STRING)");
}

TEST(SchemaTest, IndexOfOnWideSchemaAndAfterCopies) {
  // Regression for the name→index map built at construction: every
  // position resolves on a wide schema, and the map survives copies and
  // moves (it is shared, not rebuilt or dangling).
  std::vector<Attribute> attrs;
  for (int i = 0; i < 64; ++i) {
    attrs.push_back(Attribute{"col" + std::to_string(i), ValueType::kInt});
  }
  Result<Schema> wide = Schema::Create(attrs);
  DWC_ASSERT_OK(wide);
  for (size_t i = 0; i < attrs.size(); ++i) {
    EXPECT_EQ(wide->IndexOf(attrs[i].name), i);
  }
  Schema copy = *wide;
  Schema moved = std::move(*wide);
  EXPECT_EQ(copy.IndexOf("col63"), 63u);
  EXPECT_EQ(moved.IndexOf("col0"), 0u);
  EXPECT_FALSE(moved.IndexOf("col64").has_value());
  // Default-constructed schema has no attributes and no lookups.
  EXPECT_FALSE(Schema().IndexOf("col0").has_value());
}

TEST(RelationTest, VersionBumpsOnEffectiveMutationsOnly) {
  Relation rel(AbSchema());
  const uint64_t v0 = rel.version();
  EXPECT_TRUE(rel.Insert(T({I(1), S("x")})));
  EXPECT_GT(rel.version(), v0);
  const uint64_t v1 = rel.version();
  EXPECT_FALSE(rel.Insert(T({I(1), S("x")})));  // Duplicate: no-op.
  EXPECT_EQ(rel.version(), v1);
  EXPECT_FALSE(rel.Erase(T({I(2), S("x")})));  // Absent: no-op.
  EXPECT_EQ(rel.version(), v1);
  EXPECT_TRUE(rel.Erase(T({I(1), S("x")})));
  EXPECT_GT(rel.version(), v1);
  const uint64_t v2 = rel.version();
  rel.Clear();  // Already empty: no-op.
  EXPECT_EQ(rel.version(), v2);
  rel.Insert(T({I(3), S("y")}));
  rel.Clear();
  EXPECT_GT(rel.version(), v2);
}

TEST(RelationTest, UidsAreFreshPerObjectAndStableAcrossMutations) {
  Relation a(AbSchema());
  Relation b(AbSchema());
  EXPECT_NE(a.uid(), b.uid());
  const uint64_t a_uid = a.uid();
  a.Insert(T({I(1), S("x")}));
  EXPECT_EQ(a.uid(), a_uid);  // Mutations bump version, never uid.

  // Copies are new identities: a (uid, version) snapshot taken against the
  // original can never match the copy.
  Relation copy = a;
  EXPECT_NE(copy.uid(), a.uid());

  // Assignment replaces content: the target's version must move.
  Relation assigned(AbSchema());
  const uint64_t assigned_v0 = assigned.version();
  assigned = a;
  EXPECT_GT(assigned.version(), assigned_v0);

  // Copies share tuples but not identities: mutating either side moves only
  // that side's version, so a snapshot of the other still matches.
  const uint64_t copy_version = copy.version();
  const uint64_t a_shared_version = a.version();
  copy.Insert(T({I(2), S("y")}));
  EXPECT_GT(copy.version(), copy_version);
  EXPECT_EQ(a.version(), a_shared_version);
  Relation copy2 = a;
  a.Erase(T({I(1), S("x")}));
  EXPECT_GT(a.version(), a_shared_version);
  EXPECT_EQ(copy2.version(), 0u);
  EXPECT_EQ(a.uid(), a_uid);  // Cloning the tuples keeps the identity.
  a.Insert(T({I(1), S("x")}));

  // Moving from a relation invalidates snapshots of the moved-from object.
  const uint64_t a_version = a.version();
  Relation moved = std::move(a);
  EXPECT_GT(a.version(), a_version);  // NOLINT(bugprone-use-after-move)
}

TEST(ProjectedRefTest, HashesAndComparesLikeTheProjectedTuple) {
  // Every value kind, plus an int and a double that Value::operator==
  // equates (and Value::Hash hashes alike).
  const Tuple tuple = T({I(3), D(2.5), S("x"), Value::Null(), D(3.0)});
  const std::vector<std::vector<size_t>> projections = {
      {}, {0}, {1}, {2}, {3}, {4}, {2, 0}, {4, 3, 2, 1, 0}, {0, 0}};
  for (const std::vector<size_t>& indices : projections) {
    ProjectedRef ref(tuple, indices);
    Tuple projected = tuple.Project(indices);
    EXPECT_EQ(ref.Hash(), projected.Hash());
    EXPECT_EQ(TupleHash()(ref), TupleHash()(projected));
    EXPECT_EQ(ref.ToTuple(), projected);
    EXPECT_EQ(ref.ToTuple().Hash(), Tuple(projected.values()).Hash());
    EXPECT_TRUE(TupleEq()(ref, projected));
    EXPECT_TRUE(TupleEq()(projected, ref));
  }
  // TupleEq agrees with Tuple::operator== on matches and misses alike.
  const std::vector<Tuple> others = {T({I(3)}), T({D(3.0)}), T({I(4)}),
                                     T({S("x")}), T({Value::Null()}),
                                     T({I(3), I(3)}), T({})};
  for (size_t column = 0; column < tuple.size(); ++column) {
    std::vector<size_t> indices = {column};
    ProjectedRef ref(tuple, indices);
    for (const Tuple& other : others) {
      const bool equal = tuple.Project(indices) == other;
      EXPECT_EQ(TupleEq()(ref, other), equal) << column << " vs "
                                              << other.ToString();
      EXPECT_EQ(TupleEq()(other, ref), equal);
      if (equal) {
        EXPECT_EQ(ref.Hash(), other.Hash());
      }
    }
  }
  // The int 3 and the double 3.0 are one key.
  std::vector<size_t> int_column = {0};
  std::vector<size_t> double_column = {4};
  EXPECT_TRUE(TupleEq()(ProjectedRef(tuple, int_column), T({D(3.0)})));
  EXPECT_EQ(ProjectedRef(tuple, int_column).Hash(),
            ProjectedRef(tuple, double_column).Hash());
}

TEST(ProjectedRefTest, ProbesSetsAndIndexesWithoutAKeyTuple) {
  Relation rel(AbSchema());
  rel.Insert(T({I(1), S("x")}));
  rel.Insert(T({I(2), S("x")}));
  rel.Insert(T({I(3), S("y")}));
  const Relation::Index& index = rel.GetIndex({"b"});
  const Tuple probe = T({S("q"), S("x"), I(1)});
  std::vector<size_t> b_at = {1};
  auto bucket = index.find(ProjectedRef(probe, b_at));
  ASSERT_NE(bucket, index.end());
  EXPECT_EQ(bucket->second.size(), 2u);
  std::vector<size_t> ab_at = {2, 1};
  EXPECT_TRUE(rel.Contains(ProjectedRef(probe, ab_at)));
  std::vector<size_t> ba_at = {1, 2};
  EXPECT_FALSE(rel.Contains(ProjectedRef(probe, ba_at)));
  // Index upkeep on Insert/Erase probes the same way.
  rel.Erase(T({I(1), S("x")}));
  rel.Insert(T({I(4), S("z")}));
  EXPECT_EQ(index.find(T({S("x")}))->second.size(), 1u);
  EXPECT_EQ(index.find(T({S("z")}))->second.size(), 1u);
}

}  // namespace
}  // namespace dwc
