// Exact MIN/MAX folding: after every random insert/delete batch the folded
// summary table must equal Initialize() from scratch over the same source.
// The batches are built to hit the cases value counts exist for — ties at
// the extremum, deleting every copy of the maximum, MIN and MAX over one
// attribute, NULLs, mixed INT/DOUBLE values, a group that empties and comes
// back — and run through both warehouse commit paths.

#include <gtest/gtest.h>

#include "aggregate/aggregate_view.h"
#include "core/warehouse_spec.h"
#include "testing/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "warehouse/warehouse.h"

namespace dwc {
namespace {

using ::dwc::testing::D;
using ::dwc::testing::I;
using ::dwc::testing::MustRun;
using ::dwc::testing::S;
using ::dwc::testing::T;

const char* const kGroups[] = {"a", "b", "c"};

// M(id, g, v, w): `v` mixes NULL, INT and DOUBLE (2 and 2.0 are one value)
// from a small domain, so groups share extrema.
Value RandomV(Rng* rng) {
  switch (rng->Below(6)) {
    case 0:
      return Value::Null();
    case 1:
      return I(2);
    case 2:
      return D(2.0);
    case 3:
      return D(2.5);
    default:
      return I(rng->Range(0, 4));
  }
}

AggregateViewDef SummaryDef(const std::string& source) {
  AggregateViewDef def;
  def.name = "Summary";
  def.source = Expr::Base(source);
  def.group_by = {"g"};
  def.aggregates = {{AggFunc::kCount, "", "n"},
                    {AggFunc::kSum, "w", "total"},
                    {AggFunc::kMin, "v", "lo"},
                    {AggFunc::kMax, "v", "hi"},
                    {AggFunc::kMax, "w", "top"}};
  return def;
}

// One random batch over `rel`: inserts with fresh ids and deletes of
// existing tuples. Some batches instead delete every tuple holding the
// maximum `v` of a group, or every tuple of a group.
struct Batch {
  std::vector<Tuple> inserts;
  std::vector<Tuple> deletes;
};

Batch RandomBatch(const Relation& rel, int64_t* next_id, Rng* rng) {
  Batch batch;
  std::vector<Tuple> current = rel.SortedTuples();
  switch (rng->Below(4)) {
    case 0: {
      // Every copy of one group's maximum.
      std::string group = kGroups[rng->Below(3)];
      Value max = Value::Null();
      for (const Tuple& tuple : current) {
        if (tuple.at(1) == S(group.c_str()) && !tuple.at(2).is_null() &&
            (max.is_null() || max < tuple.at(2))) {
          max = tuple.at(2);
        }
      }
      for (const Tuple& tuple : current) {
        if (tuple.at(1) == S(group.c_str()) && !max.is_null() &&
            tuple.at(2) == max) {
          batch.deletes.push_back(tuple);
        }
      }
      break;
    }
    case 1: {
      // A whole group.
      std::string group = kGroups[rng->Below(3)];
      for (const Tuple& tuple : current) {
        if (tuple.at(1) == S(group.c_str())) {
          batch.deletes.push_back(tuple);
        }
      }
      break;
    }
    default:
      for (const Tuple& tuple : current) {
        if (rng->Chance(0.2)) {
          batch.deletes.push_back(tuple);
        }
      }
      break;
  }
  int64_t inserts = rng->Range(0, 5);
  for (int64_t i = 0; i < inserts; ++i) {
    batch.inserts.push_back(T({I((*next_id)++), S(kGroups[rng->Below(3)]),
                               RandomV(rng), I(rng->Range(-3, 9))}));
  }
  return batch;
}

// SummaryDef over M computed the plain way: one pass per group.
Relation NaiveSummary(const Relation& rel, const Schema& out) {
  Relation summary(out);
  for (const char* group : kGroups) {
    int64_t n = 0;
    int64_t total = 0;
    Value lo = Value::Null();
    Value hi = Value::Null();
    Value top = Value::Null();
    for (const Tuple& tuple : rel.tuples()) {
      if (tuple.at(1) != S(group)) {
        continue;
      }
      ++n;
      total += tuple.at(3).AsInt();
      const Value& v = tuple.at(2);
      if (!v.is_null() && (lo.is_null() || v < lo)) {
        lo = v;
      }
      if (!v.is_null() && (hi.is_null() || hi < v)) {
        hi = v;
      }
      if (top.is_null() || top < tuple.at(3)) {
        top = tuple.at(3);
      }
    }
    if (n > 0) {
      summary.Insert(T({S(group), I(n), I(total), lo, hi, top}));
    }
  }
  return summary;
}

const char kScript[] = R"(
CREATE TABLE M(id INT, g STRING, v DOUBLE, w INT, KEY(id));
INSERT INTO M VALUES (1, 'a', 2, 5), (2, 'a', 2.0, 5), (3, 'a', 1, 0),
  (4, 'b', NULL, 1), (5, 'b', 3, 2), (6, 'c', 2.5, 7);
VIEW V AS M;
)";

// Folds straight into an AggregateView, checking it against Initialize()
// after every batch.
class AggregateFoldPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregateFoldPropertyTest, FoldMatchesInitialize) {
  ScriptContext context = MustRun(kScript);
  Relation rel = *context.db.FindRelation("M");
  Environment env;
  env.Bind("M", &rel);
  SchemaResolver resolver = [&rel](const std::string& name) {
    return name == "M" ? &rel.schema() : nullptr;
  };
  Result<AggregateView> view = AggregateView::Create(SummaryDef("M"), resolver);
  DWC_ASSERT_OK(view);
  DWC_ASSERT_OK(view->Initialize(env));

  Rng rng(GetParam());
  int64_t next_id = 100;
  for (int step = 0; step < 60; ++step) {
    Batch batch = RandomBatch(rel, &next_id, &rng);
    Relation plus(rel.schema());
    Relation minus(rel.schema());
    for (const Tuple& tuple : batch.deletes) {
      ASSERT_TRUE(rel.Erase(tuple));
      minus.Insert(tuple);
    }
    for (const Tuple& tuple : batch.inserts) {
      ASSERT_TRUE(rel.Insert(tuple));
      plus.Insert(tuple);
    }
    DWC_ASSERT_OK(view->ApplyDelta(plus, minus));

    Result<AggregateView> fresh =
        AggregateView::Create(SummaryDef("M"), resolver);
    DWC_ASSERT_OK(fresh);
    DWC_ASSERT_OK(fresh->Initialize(env));
    ASSERT_TRUE(testing::RelationsEqual(view->materialized(),
                                        fresh->materialized()))
        << "step " << step;
    ASSERT_TRUE(testing::RelationsEqual(
        view->materialized(), NaiveSummary(rel, view->schema())))
        << "step " << step;
  }
}

// The same streams through a warehouse, once committing in place and once
// copy-on-write under a pinned snapshot, which must keep seeing the table
// as it was when pinned.
TEST_P(AggregateFoldPropertyTest, BothCommitPathsMatchInitialize) {
  for (bool pinned : {false, true}) {
    SCOPED_TRACE(pinned ? "copy-on-write" : "in place");
    ScriptContext context = MustRun(kScript);
    auto spec = std::make_shared<WarehouseSpec>(
        *SpecifyWarehouse(context.catalog, context.views));
    Source source(context.db);
    Result<Warehouse> warehouse = Warehouse::Load(spec, source.db());
    DWC_ASSERT_OK(warehouse);
    DWC_ASSERT_OK(warehouse->AddAggregateView(SummaryDef("V")));
    SnapshotHandle snapshot;
    Relation pinned_table = warehouse->FindAggregate("Summary")->materialized();
    if (pinned) {
      snapshot = warehouse->PinSnapshot();
    }

    Rng rng(GetParam());
    int64_t next_id = 100;
    for (int step = 0; step < 30; ++step) {
      Batch batch =
          RandomBatch(*source.db().FindRelation("M"), &next_id, &rng);
      Result<CanonicalDelta> delta =
          source.Apply(UpdateOp{"M", batch.inserts, batch.deletes});
      DWC_ASSERT_OK(delta);
      DWC_ASSERT_OK(warehouse->Integrate(*delta));

      SchemaResolver resolver = spec->WarehouseResolver();
      Result<AggregateView> fresh =
          AggregateView::Create(SummaryDef("V"), resolver);
      DWC_ASSERT_OK(fresh);
      Environment env = Environment::FromDatabase(warehouse->state());
      DWC_ASSERT_OK(fresh->Initialize(env));
      ASSERT_TRUE(testing::RelationsEqual(
          warehouse->FindAggregate("Summary")->materialized(),
          fresh->materialized()))
          << "step " << step;
    }
    EpochStats stats = warehouse->epoch_stats();
    if (pinned) {
      EXPECT_GT(stats.cow_commits, 0u);
      Result<Relation> old =
          warehouse->AnswerQueryAt(snapshot, Expr::Base("Summary"));
      DWC_ASSERT_OK(old);
      EXPECT_TRUE(testing::RelationsEqual(*old, pinned_table));
    } else {
      EXPECT_EQ(stats.cow_commits, 0u);
      EXPECT_GT(stats.inplace_commits, 0u);
    }
    DWC_ASSERT_OK(CheckConsistency(*warehouse, source.db()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateFoldPropertyTest,
                         ::testing::Values(41, 42, 43, 44));

// A fold that fails (SUM over NULL) fails before the commit: relations,
// tables and the epoch all stay as they were, on both commit paths.
TEST(AggregateFoldTest, FailedFoldLeavesWarehouseUnchanged) {
  for (bool pinned : {false, true}) {
    SCOPED_TRACE(pinned ? "copy-on-write" : "in place");
    ScriptContext context = MustRun(kScript);
    auto spec = std::make_shared<WarehouseSpec>(
        *SpecifyWarehouse(context.catalog, context.views));
    Source source(context.db);
    Result<Warehouse> warehouse = Warehouse::Load(spec, source.db());
    DWC_ASSERT_OK(warehouse);
    DWC_ASSERT_OK(warehouse->AddAggregateView(SummaryDef("V")));
    SnapshotHandle snapshot;
    if (pinned) {
      snapshot = warehouse->PinSnapshot();
    }
    uint64_t relations = StateDigest(warehouse->state()).Combined();
    Relation table = warehouse->FindAggregate("Summary")->materialized();
    uint64_t epoch = warehouse->current_epoch();

    Result<CanonicalDelta> delta =
        source.Apply(UpdateOp{"M",
                              {T({I(50), S("a"), I(9), Value::Null()})},
                              {T({I(3), S("a"), I(1), I(0)})}});
    DWC_ASSERT_OK(delta);
    EXPECT_EQ(warehouse->Integrate(*delta).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(StateDigest(warehouse->state()).Combined(), relations);
    EXPECT_TRUE(testing::RelationsEqual(
        warehouse->FindAggregate("Summary")->materialized(), table));
    EXPECT_EQ(warehouse->current_epoch(), epoch);
    EXPECT_EQ(warehouse->last_integrate_epoch(), 0u);
  }
}

// Deleting a value the view never folded is an internal error, and the
// view is left as it was.
TEST(AggregateFoldTest, DeleteOfUnfoldedValueIsInternal) {
  ScriptContext context = MustRun(kScript);
  const Relation& rel = *context.db.FindRelation("M");
  Environment env = Environment::FromDatabase(context.db);
  SchemaResolver resolver = [&rel](const std::string& name) {
    return name == "M" ? &rel.schema() : nullptr;
  };
  Result<AggregateView> view = AggregateView::Create(SummaryDef("M"), resolver);
  DWC_ASSERT_OK(view);
  DWC_ASSERT_OK(view->Initialize(env));
  Relation before = view->materialized();

  Relation plus(rel.schema());
  Relation minus(rel.schema());
  minus.Insert(T({I(3), S("a"), I(7), I(0)}));  // Group a never held v=7.
  EXPECT_EQ(view->Fold(plus, minus).status().code(), StatusCode::kInternal);
  minus = Relation(rel.schema());
  minus.Insert(T({I(9), S("z"), I(1), I(0)}));  // No group z.
  EXPECT_EQ(view->ApplyDelta(plus, minus).code(), StatusCode::kInternal);
  EXPECT_TRUE(testing::RelationsEqual(view->materialized(), before));
}

// MIN/MAX ignore NULLs; a group whose values are all NULL reads NULL.
TEST(AggregateFoldTest, NullsAreNotCounted) {
  ScriptContext context = MustRun(kScript);
  const Relation& rel = *context.db.FindRelation("M");
  Environment env = Environment::FromDatabase(context.db);
  SchemaResolver resolver = [&rel](const std::string& name) {
    return name == "M" ? &rel.schema() : nullptr;
  };
  Result<AggregateView> view = AggregateView::Create(SummaryDef("M"), resolver);
  DWC_ASSERT_OK(view);
  DWC_ASSERT_OK(view->Initialize(env));
  EXPECT_TRUE(view->materialized().Contains(
      T({S("b"), I(2), I(3), I(3), I(3), I(2)})));
  Relation plus(rel.schema());
  Relation minus(rel.schema());
  minus.Insert(T({I(5), S("b"), I(3), I(2)}));
  DWC_ASSERT_OK(view->ApplyDelta(plus, minus));
  EXPECT_TRUE(view->materialized().Contains(
      T({S("b"), I(1), I(1), Value::Null(), Value::Null(), I(1)})));
}

}  // namespace
}  // namespace dwc
