// B3 (DESIGN.md): the cost of query independence (Section 3).
//
//   BM_TranslateOnly     — pure rewrite (view matching, Q ∘ W^-1,
//                          simplification): the per-query overhead the
//                          warehouse adds.
//   BM_AnswerAtWarehouse — translated query evaluated on warehouse data.
//   BM_AnswerAtSource    — same query evaluated directly at the source (the
//                          channel the paper assumes unavailable).
//
// Expected shape: translation is microseconds (tree rewriting); warehouse
// evaluation is within a small constant of source evaluation — the price of
// reconstructing base relations through inverses. With referential
// integrity, inverses collapse (Example 2.4) and the gap narrows. A query
// that is a view's definition (Q4) reads the view and skips the inverses.
// Q3, Emp's clerks without a sale, plans to π[clerk](C_Emp): the stored
// complement's disjointness facts drop both subtracted arms (DESIGN §9),
// so the warehouse reads C_Emp where the source subtracts all of Sale.

#include <benchmark/benchmark.h>

#include "algebra/evaluator.h"
#include "bench/bench_common.h"
#include "core/query_translation.h"
#include "parser/parser.h"
#include "util/string_util.h"

namespace dwc {
namespace bench {
namespace {

const char* Queries[] = {
    // Q1: union over both bases (Example 1.2).
    "project[clerk](Sale) union project[clerk](Emp)",
    // Q2: selective join (Section 3).
    "project[age](select[item = 12345](Sale) join Emp)",
    // Q3: anti-join-ish difference; answered from C_Emp alone.
    "project[clerk](Emp) minus project[clerk](Sale)",
    // Q4: Sold's own definition, answered by reading Sold.
    "Sale join Emp",
};
constexpr int kQueries = sizeof(Queries) / sizeof(Queries[0]);

struct Fixture {
  ScaledFigure1 scenario;
  std::shared_ptr<WarehouseSpec> spec;
  std::unique_ptr<Warehouse> warehouse;
  Environment source_env;

  explicit Fixture(size_t fact)
      : scenario(fact / 8 + 4, fact, /*referential=*/true, /*seed=*/5) {
    spec = std::make_shared<WarehouseSpec>(Unwrap(
        SpecifyWarehouse(scenario.catalog, scenario.views), "spec"));
    warehouse = std::make_unique<Warehouse>(
        Unwrap(Warehouse::Load(spec, scenario.db), "load"));
    source_env = Environment::FromDatabase(scenario.db);
  }
};

Fixture& SharedFixture(size_t fact) {
  static auto* fixtures = new std::map<size_t, std::unique_ptr<Fixture>>();
  auto it = fixtures->find(fact);
  if (it == fixtures->end()) {
    it = fixtures->emplace(fact, std::make_unique<Fixture>(fact)).first;
  }
  return *it->second;
}

ExprRef Query(int index) {
  static auto* cache = new std::map<int, ExprRef>();
  auto it = cache->find(index);
  if (it == cache->end()) {
    it = cache->emplace(index, Unwrap(ParseExpr(Queries[index]), "parse"))
             .first;
  }
  return it->second;
}

void BM_TranslateOnly(benchmark::State& state) {
  Fixture& fixture = SharedFixture(static_cast<size_t>(state.range(1)));
  ExprRef query = Query(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ExprRef translated =
        Unwrap(TranslateQuery(query, *fixture.spec), "translate");
    benchmark::DoNotOptimize(translated);
  }
}

void BM_AnswerAtWarehouse(benchmark::State& state) {
  Fixture& fixture = SharedFixture(static_cast<size_t>(state.range(1)));
  ExprRef query = Query(static_cast<int>(state.range(0)));
  size_t out = 0;
  for (auto _ : state) {
    Relation answer =
        Unwrap(fixture.warehouse->AnswerQuery(query), "answer");
    out = answer.size();
    benchmark::DoNotOptimize(answer);
  }
  state.counters["result_tuples"] = static_cast<double>(out);
}

void BM_AnswerAtSource(benchmark::State& state) {
  Fixture& fixture = SharedFixture(static_cast<size_t>(state.range(1)));
  ExprRef query = Query(static_cast<int>(state.range(0)));
  size_t out = 0;
  for (auto _ : state) {
    Relation answer =
        Unwrap(EvalExpr(*query, fixture.source_env), "answer");
    out = answer.size();
    benchmark::DoNotOptimize(answer);
  }
  state.counters["result_tuples"] = static_cast<double>(out);
}

void Args(benchmark::internal::Benchmark* bench) {
  for (int64_t fact : {1000, 8000}) {
    for (int64_t q = 0; q < kQueries; ++q) {
      bench->Args({q, fact});
    }
  }
  bench->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_TranslateOnly)->Apply(Args);
BENCHMARK(BM_AnswerAtWarehouse)->Apply(Args);
BENCHMARK(BM_AnswerAtSource)->Apply(Args);

// --json: the same (query, fact) grid with fixed iteration counts, written
// to BENCH_query_translation.json for CI artifact collection.
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
  for (size_t fact : {size_t{1000}, size_t{8000}}) {
    Fixture& fixture = SharedFixture(fact);
    for (int q = 0; q < kQueries; ++q) {
      ExprRef query = Query(q);
      BenchRow translate;
      translate.name = StrCat("translate_only/q", q + 1, "/fact=", fact);
      translate.threads = 1;  // Translation evaluates nothing.
      translate.latency = SummarizeLatencies(MeasureLatenciesUs(50, [&] {
        ExprRef translated =
            Unwrap(TranslateQuery(query, *fixture.spec), "translate");
        benchmark::DoNotOptimize(translated);
      }));
      rows.push_back(std::move(translate));

      size_t out = 0;
      BenchRow warehouse;
      warehouse.name = StrCat("answer_warehouse/q", q + 1, "/fact=", fact);
      warehouse.threads = 1;
      warehouse.latency = SummarizeLatencies(MeasureLatenciesUs(15, [&] {
        Relation answer =
            Unwrap(fixture.warehouse->AnswerQuery(query), "answer");
        out = answer.size();
        benchmark::DoNotOptimize(answer);
      }));
      warehouse.counters["result_tuples"] = static_cast<double>(out);
      rows.push_back(std::move(warehouse));

      BenchRow at_source;
      at_source.name = StrCat("answer_source/q", q + 1, "/fact=", fact);
      at_source.threads = 1;
      at_source.latency = SummarizeLatencies(MeasureLatenciesUs(15, [&] {
        Relation answer =
            Unwrap(EvalExpr(*query, fixture.source_env), "answer");
        out = answer.size();
        benchmark::DoNotOptimize(answer);
      }));
      at_source.counters["result_tuples"] = static_cast<double>(out);
      rows.push_back(std::move(at_source));
    }
  }
  PrintBenchRows(rows);
  WriteBenchJson("query_translation", rows);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dwc

int main(int argc, char** argv) { return dwc::bench::Main(argc, argv); }
