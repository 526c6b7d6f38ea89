// Property: the subplan recycler cache is unobservable. Random PSJ
// workloads with interleaved deltas and translated queries, run with the
// cache disabled (the pre-cache oracle), with a large budget and with a
// tiny eviction-thrashing budget, produce digest-identical warehouse states after every update and
// digest-identical query answers (column order included — TupleDigest is
// position-sensitive). And the cache is purely derived state: a durable
// warehouse resumed from disk starts with a cold cache.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/warehouse_spec.h"
#include "storage/durable.h"
#include "storage/fault_vfs.h"
#include "testing/property_util.h"
#include "testing/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "warehouse/source.h"
#include "warehouse/warehouse.h"
#include "workload/random_db.h"
#include "workload/random_views.h"
#include "workload/update_stream.h"

namespace dwc {
namespace {

using ::dwc::testing::CatalogShape;
using ::dwc::testing::MakeCatalog;

struct CacheConfig {
  const char* name;
  size_t budget;
};

// The first config is the oracle: cache disabled — byte-for-byte the
// pre-cache evaluation pipeline.
const CacheConfig kConfigs[] = {
    {"uncached", 0},
    {"cached", 1 << 20},
    {"cached_tiny_budget", 48},
};

EvaluatorOptions MakeOptions(const CacheConfig& config) {
  EvaluatorOptions options;
  options.cache_budget_tuples = config.budget;
  return options;
}

uint64_t Fingerprint(const Warehouse& warehouse) {
  return StateDigest(warehouse.state()).Combined();
}

class CacheCoherencePropertyTest
    : public ::testing::TestWithParam<CatalogShape> {};

TEST_P(CacheCoherencePropertyTest, DeltasAndQueriesDigestIdentical) {
  std::shared_ptr<Catalog> catalog = MakeCatalog(GetParam());
  std::vector<std::string> relations = catalog->RelationNames();

  for (int round = 0; round < 3; ++round) {
    Rng setup_rng(4100 + 37 * static_cast<uint64_t>(GetParam()) +
                  static_cast<uint64_t>(round));
    Result<std::vector<ViewDef>> views =
        GenerateRandomPsjViews(*catalog, &setup_rng);
    DWC_ASSERT_OK(views);
    Result<WarehouseSpec> spec = SpecifyWarehouse(catalog, *views);
    DWC_ASSERT_OK(spec);
    auto spec_ptr = std::make_shared<WarehouseSpec>(std::move(spec).value());
    Result<Database> db = GenerateRandomDatabase(catalog, &setup_rng);
    DWC_ASSERT_OK(db);

    // A fixed pool of translated queries, re-answered after every delta:
    // the repeated-query pattern the recycler is built for.
    std::vector<ExprRef> queries;
    Rng query_rng(6200 + static_cast<uint64_t>(round));
    for (int q = 0; q < 3; ++q) {
      Result<ExprRef> query = GenerateRandomQuery(*catalog, &query_rng);
      DWC_ASSERT_OK(query);
      queries.push_back(std::move(query).value());
    }

    std::vector<std::vector<uint64_t>> traces;
    for (const CacheConfig& config : kConfigs) {
      SCOPED_TRACE(StrCat("round ", round, ", config ", config.name));
      Source source(*db);
      Result<Warehouse> warehouse = Warehouse::Load(spec_ptr, source.db());
      DWC_ASSERT_OK(warehouse);
      warehouse->SetEvaluatorOptions(MakeOptions(config));

      Rng stream_rng(7300 + static_cast<uint64_t>(round));
      std::vector<uint64_t> trace;
      for (int step = 0; step < 10; ++step) {
        const std::string& relation =
            relations[stream_rng.Below(relations.size())];
        Result<UpdateOp> op =
            GenerateRandomUpdate(source.db(), relation, &stream_rng);
        DWC_ASSERT_OK(op);
        Result<CanonicalDelta> delta = source.Apply(*op);
        DWC_ASSERT_OK(delta);
        if (!delta->empty()) {
          DWC_ASSERT_OK(warehouse->Integrate(*delta));
        }
        trace.push_back(Fingerprint(*warehouse));
        for (const ExprRef& query : queries) {
          Result<Relation> answer = warehouse->AnswerQuery(query);
          DWC_ASSERT_OK(answer);
          trace.push_back(RelationDigest(*answer));
        }
        // The budget is a hard ceiling at every step, not just at the end.
        EXPECT_LE(warehouse->subplan_cache().cached_tuples(),
                  config.budget);
      }
      DWC_ASSERT_OK(CheckConsistency(*warehouse, source.db()));
      if (config.budget == 0) {
        // The oracle never touches the cache.
        EXPECT_EQ(warehouse->subplan_cache().stats().hits +
                      warehouse->subplan_cache().stats().misses,
                  0u);
      } else if (config.budget > 1000) {
        // Re-answering a fixed query pool against unchanged state must
        // recycle rather than re-evaluate.
        EXPECT_GT(warehouse->subplan_cache().stats().hits, 0u);
      }
      traces.push_back(std::move(trace));
    }
    for (size_t i = 1; i < traces.size(); ++i) {
      EXPECT_EQ(traces[i], traces[0])
          << "round " << round << ": config '" << kConfigs[i].name
          << "' diverged from the uncached oracle";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, CacheCoherencePropertyTest,
                         ::testing::Values(CatalogShape::kChain,
                                           CatalogShape::kKeyed,
                                           CatalogShape::kKeyedInds),
                         [](const ::testing::TestParamInfo<CatalogShape>& i) {
                           return ::dwc::testing::CatalogShapeName(i.param);
                         });

// The cache is never checkpointed: a warehouse resumed from durable
// storage starts cold, then warms up again from scratch.
TEST(CacheCoherenceTest, ResumeStartsCold) {
  std::shared_ptr<Catalog> catalog = MakeCatalog(CatalogShape::kKeyed);
  std::vector<std::string> relations = catalog->RelationNames();
  Rng rng(9100);
  Result<std::vector<ViewDef>> views = GenerateRandomPsjViews(*catalog, &rng);
  DWC_ASSERT_OK(views);
  Result<WarehouseSpec> spec = SpecifyWarehouse(catalog, *views);
  DWC_ASSERT_OK(spec);
  auto spec_ptr = std::make_shared<WarehouseSpec>(std::move(spec).value());
  Result<Database> db = GenerateRandomDatabase(catalog, &rng);
  DWC_ASSERT_OK(db);
  Result<ExprRef> query = GenerateRandomQuery(*catalog, &rng);
  DWC_ASSERT_OK(query);

  FaultVfs vfs;
  Source source(*db, "s1");
  Result<Warehouse> warehouse = Warehouse::Load(spec_ptr, source.db());
  DWC_ASSERT_OK(warehouse);
  EvaluatorOptions options;
  options.cache_budget_tuples = 1 << 20;
  warehouse->SetEvaluatorOptions(options);
  Result<std::unique_ptr<DurableWarehouse>> durable =
      DurableWarehouse::Bootstrap(
          &vfs, "wh", &warehouse.value(),
          JournalStamp{source.epoch(), source.last_sequence()});
  DWC_ASSERT_OK(durable);

  // Integrate a few deltas and answer the query repeatedly to populate the
  // live cache.
  for (int step = 0; step < 4; ++step) {
    const std::string& relation = relations[rng.Below(relations.size())];
    Result<UpdateOp> op = GenerateRandomUpdate(source.db(), relation, &rng);
    DWC_ASSERT_OK(op);
    Result<CanonicalDelta> delta = source.Apply(*op);
    DWC_ASSERT_OK(delta);
    DWC_ASSERT_OK((*durable)->Integrate(*delta, &source));
    DWC_ASSERT_OK(warehouse->AnswerQuery(*query));
    DWC_ASSERT_OK(warehouse->AnswerQuery(*query));
  }
  ASSERT_GT(warehouse->subplan_cache().entries(), 0u);
  const uint64_t live_fingerprint = Fingerprint(*warehouse);

  Result<DurableWarehouse::Resumed> resumed =
      DurableWarehouse::Resume(&vfs, "wh");
  DWC_ASSERT_OK(resumed);
  Warehouse& revived = *resumed->recovered.restored.warehouse;
  EXPECT_EQ(Fingerprint(revived), live_fingerprint);
  // Cold: no entries, no counters, no budget (options are not persisted).
  EXPECT_EQ(revived.subplan_cache().entries(), 0u);
  EXPECT_EQ(revived.subplan_cache().stats().hits, 0u);
  EXPECT_EQ(revived.subplan_cache().stats().misses, 0u);

  // Warming up again from scratch converges to the same answers.
  revived.SetEvaluatorOptions(options);
  Result<Relation> cold = revived.AnswerQuery(*query);
  DWC_ASSERT_OK(cold);
  Result<Relation> warm = revived.AnswerQuery(*query);
  DWC_ASSERT_OK(warm);
  Result<Relation> live_answer = warehouse->AnswerQuery(*query);
  DWC_ASSERT_OK(live_answer);
  EXPECT_TRUE(warm->SameContentAs(*cold));
  EXPECT_TRUE(warm->SameContentAs(*live_answer));
}

}  // namespace
}  // namespace dwc
