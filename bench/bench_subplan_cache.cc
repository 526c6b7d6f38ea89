// B12 (EXPERIMENTS.md): the subplan recycler cache (algebra/subplan_cache.h)
// under the two workloads it was built for.
//
//   repeated_query/budget=B — a fixed pool of translated queries answered
//     over and over against an unchanged warehouse. With a budget the whole
//     W^-1 plan recycles; ops/sec vs the budget=0 row is the headline
//     speedup (counter speedup_vs_uncached).
//   skewed_delta/budget=B  — every refresh inserts into SaleA only, then
//     the group-B queries are answered. Group B's relations keep their
//     (uid, version) identities, so its subplans should recycle across
//     refreshes: counter hit_rate is the fraction of non-leaf lookups that
//     hit during the group-B answers.
//
// The catalog holds two disjoint Figure-1 groups (EmpA/SaleA -> SoldA,
// EmpB/SaleB -> SoldB) so a delta on SaleA can never invalidate a group-B
// subplan. Budgets: 0 (cache off — the baseline), 1000 tuples (pressure:
// fact-sized entries never fit and survivors get evicted), 1M (everything
// fits).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "exec/thread_pool.h"
#include "parser/parser.h"
#include "util/string_util.h"

namespace dwc {
namespace bench {
namespace {

constexpr size_t kDim = 256;    // Clerks per group.
constexpr size_t kFact = 4000;  // Sales per group.

// Two independent copies of the scaled Figure 1 scenario in one catalog.
struct TwoGroupFixture {
  std::shared_ptr<Catalog> catalog;
  Database db;
  std::vector<ViewDef> views;
  std::shared_ptr<WarehouseSpec> spec;
  std::unique_ptr<Source> source;
  std::unique_ptr<Warehouse> warehouse;

  explicit TwoGroupFixture(size_t budget) {
    catalog = std::make_shared<Catalog>();
    for (const char* g : {"A", "B"}) {
      std::string emp = StrCat("Emp", g);
      std::string sale = StrCat("Sale", g);
      Check(catalog->AddRelation(emp, Schema({{"clerk", ValueType::kInt},
                                              {"age", ValueType::kInt}})),
            "add Emp");
      Check(catalog->AddKey(emp, {"clerk"}), "key Emp");
      Check(catalog->AddRelation(sale, Schema({{"item", ValueType::kInt},
                                               {"clerk", ValueType::kInt}})),
            "add Sale");
      Check(catalog->AddInclusion(
                InclusionDependency{sale, {"clerk"}, emp, {"clerk"}}),
            "IND");
      views.push_back(ViewDef{StrCat("Sold", g),
                              Expr::Join(Expr::Base(sale), Expr::Base(emp))});
    }
    db = Database(catalog);
    Rng rng(11);
    for (const char* g : {"A", "B"}) {
      std::string emp = StrCat("Emp", g);
      std::string sale = StrCat("Sale", g);
      Check(db.AddEmptyRelation(emp, *catalog->FindSchema(emp)), "emp rel");
      Check(db.AddEmptyRelation(sale, *catalog->FindSchema(sale)),
            "sale rel");
      Relation* emp_rel = db.FindMutableRelation(emp);
      for (size_t i = 0; i < kDim; ++i) {
        emp_rel->Insert(Tuple({Value::Int(static_cast<int64_t>(i)),
                               Value::Int(rng.Range(18, 65))}));
      }
      Relation* sale_rel = db.FindMutableRelation(sale);
      size_t inserted = 0;
      while (inserted < kFact) {
        Tuple tuple({Value::Int(rng.Range(0, 1 << 24)),
                     Value::Int(rng.Range(0, static_cast<int64_t>(kDim) - 1))});
        if (sale_rel->Insert(std::move(tuple))) {
          ++inserted;
        }
      }
    }
    spec = std::make_shared<WarehouseSpec>(
        Unwrap(SpecifyWarehouse(catalog, views), "spec"));
    source = std::make_unique<Source>(db);
    warehouse = std::make_unique<Warehouse>(
        Unwrap(Warehouse::Load(spec, source->db()), "load"));
    EvaluatorOptions options;
    options.cache_budget_tuples = budget;
    warehouse->SetEvaluatorOptions(options);
  }

  UpdateOp MakeSaleABatch(size_t n, Rng* rng) const {
    const Relation* sale = source->db().FindRelation("SaleA");
    UpdateOp op;
    op.relation = "SaleA";
    while (op.inserts.size() < n) {
      Tuple tuple(
          {Value::Int(rng->Range(1 << 24, 1 << 30)),
           Value::Int(rng->Range(0, static_cast<int64_t>(kDim) - 1))});
      if (!sale->Contains(tuple)) {
        op.inserts.push_back(std::move(tuple));
      }
    }
    return op;
  }
};

const char* kGroupAQueries[] = {
    "project[clerk](SaleA) union project[clerk](EmpA)",
    "project[age](select[item = 123](SaleA) join EmpA)",
};
const char* kGroupBQueries[] = {
    "project[clerk](EmpB) minus project[clerk](SaleB)",
    "project[age](select[item = 123](SaleB) join EmpB)",
};

std::vector<ExprRef> ParseAll(std::initializer_list<const char*> texts) {
  std::vector<ExprRef> queries;
  for (const char* text : texts) {
    queries.push_back(Unwrap(ParseExpr(text), "parse"));
  }
  return queries;
}

size_t AnswerAll(const Warehouse& warehouse,
                 const std::vector<ExprRef>& queries) {
  size_t tuples = 0;
  for (const ExprRef& query : queries) {
    Relation answer = Unwrap(warehouse.AnswerQuery(query), "answer");
    tuples += answer.size();
    benchmark::DoNotOptimize(answer);
  }
  return tuples;
}

// google-benchmark registrations: the repeated-query workload at both cache
// extremes, so `bench_subplan_cache` without --json is still informative.
void BM_RepeatedQueries(benchmark::State& state) {
  TwoGroupFixture fixture(static_cast<size_t>(state.range(0)));
  std::vector<ExprRef> queries =
      ParseAll({kGroupAQueries[0], kGroupAQueries[1], kGroupBQueries[0],
                kGroupBQueries[1]});
  AnswerAll(*fixture.warehouse, queries);  // Warm the cache.
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnswerAll(*fixture.warehouse, queries));
  }
  SubplanCache::CacheStats stats = fixture.warehouse->subplan_cache().stats();
  state.counters["cache_hits"] = static_cast<double>(stats.hits);
  state.counters["cache_misses"] = static_cast<double>(stats.misses);
}

BENCHMARK(BM_RepeatedQueries)
    ->Arg(0)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

// --json: both workloads at budgets {0, 1000, 1M}, written to
// BENCH_subplan_cache.json. EXPERIMENTS.md B12's acceptance gates live on
// these counters: repeated_query speedup_vs_uncached >= 1.5 and
// skewed_delta hit_rate >= 0.9 at the 1M budget.
int Main(int argc, char** argv) {
  if (!JsonRequested(argc, argv)) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  std::vector<BenchRow> rows;
  const size_t kBudgets[] = {0, 1000, size_t{1} << 20};

  double repeated_uncached_ops = 0;
  for (size_t budget : kBudgets) {
    TwoGroupFixture fixture(budget);
    std::vector<ExprRef> queries =
        ParseAll({kGroupAQueries[0], kGroupAQueries[1], kGroupBQueries[0],
                  kGroupBQueries[1]});
    std::vector<double> latencies = MeasureLatenciesUs(15, [&] {
      benchmark::DoNotOptimize(AnswerAll(*fixture.warehouse, queries));
    });
    // MeasureLatenciesUs's untimed warmup absorbed the cold misses; one
    // more pool pass samples the steady-state hit/miss mix.
    SubplanCache::CacheStats before =
        fixture.warehouse->subplan_cache().stats();
    AnswerAll(*fixture.warehouse, queries);
    SubplanCache::CacheStats after = fixture.warehouse->subplan_cache().stats();
    double hits = static_cast<double>(after.hits - before.hits);
    double misses = static_cast<double>(after.misses - before.misses);
    BenchRow row;
    row.name = StrCat("repeated_query/budget=", budget);
    row.threads = ThreadPool::ResolveThreads(
        fixture.warehouse->evaluator_options().num_threads);
    row.latency = SummarizeLatencies(std::move(latencies));
    row.counters["hits"] = hits;
    row.counters["misses"] = misses;
    row.counters["hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    if (budget == 0) {
      repeated_uncached_ops = row.latency.ops_per_sec;
    } else if (repeated_uncached_ops > 0) {
      row.counters["speedup_vs_uncached"] =
          row.latency.ops_per_sec / repeated_uncached_ops;
    }
    rows.push_back(std::move(row));
  }

  double skewed_uncached_ops = 0;
  for (size_t budget : kBudgets) {
    TwoGroupFixture fixture(budget);
    std::vector<ExprRef> group_b =
        ParseAll({kGroupBQueries[0], kGroupBQueries[1]});
    Rng rng(31);
    double hits = 0;
    double misses = 0;
    std::vector<double> latencies;
    // Untimed: the SaleA-only delta and its integration. Timed: answering
    // the group-B queries afterwards — whose inputs the delta left
    // untouched.
    auto step = [&](bool timed) {
      UpdateOp op = fixture.MakeSaleABatch(16, &rng);
      CanonicalDelta delta = Unwrap(fixture.source->Apply(op), "apply");
      Check(fixture.warehouse->Integrate(delta), "integrate");
      SubplanCache::CacheStats before =
          fixture.warehouse->subplan_cache().stats();
      auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(AnswerAll(*fixture.warehouse, group_b));
      if (timed) {
        latencies.push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count());
        SubplanCache::CacheStats after =
            fixture.warehouse->subplan_cache().stats();
        hits += static_cast<double>(after.hits - before.hits);
        misses += static_cast<double>(after.misses - before.misses);
      }
    };
    step(/*timed=*/false);  // Warmup populates the cache.
    for (int i = 0; i < 12; ++i) {
      step(/*timed=*/true);
    }
    BenchRow row;
    row.name = StrCat("skewed_delta/budget=", budget);
    row.threads = ThreadPool::ResolveThreads(
        fixture.warehouse->evaluator_options().num_threads);
    row.latency = SummarizeLatencies(std::move(latencies));
    row.counters["hits"] = hits;
    row.counters["misses"] = misses;
    row.counters["hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    if (budget == 0) {
      skewed_uncached_ops = row.latency.ops_per_sec;
    } else if (skewed_uncached_ops > 0) {
      row.counters["speedup_vs_uncached"] =
          row.latency.ops_per_sec / skewed_uncached_ops;
    }
    rows.push_back(std::move(row));
  }

  PrintBenchRows(rows);
  WriteBenchJson("subplan_cache", rows);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dwc

int main(int argc, char** argv) { return dwc::bench::Main(argc, argv); }
