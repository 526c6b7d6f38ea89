// B4 (DESIGN.md): cost of the Theorem 2.2 cover machinery. Minimal-cover
// enumeration is worst-case exponential in the number of candidate views;
// this bench maps where that matters.
//
//   BM_EnumerateCovers/{candidates, attrs} — synthetic candidates, each
//     covering a random half of the attributes.
//   BM_ComputeComplement/{views} — end-to-end Step 1 on the Example 2.3
//     schema with a growing stack of fragment views.
//
// Counter: covers = minimal covers found (capped at max_covers).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/complement.h"
#include "core/covers.h"
#include "util/string_util.h"

namespace dwc {
namespace bench {
namespace {

std::vector<CoverCandidate> MakeCandidates(size_t n, size_t attrs,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<CoverCandidate> candidates;
  for (size_t i = 0; i < n; ++i) {
    CoverCandidate candidate;
    candidate.label = StrCat("c", i);
    candidate.expr = Expr::Base(candidate.label);
    // Key attribute a0 is always present (candidates model key-containing
    // views); the rest are coin flips.
    candidate.attrs.insert("a0");
    for (size_t a = 1; a < attrs; ++a) {
      if (rng.Chance(0.5)) {
        candidate.attrs.insert(StrCat("a", a));
      }
    }
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

void BM_EnumerateCovers(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t attrs = static_cast<size_t>(state.range(1));
  std::vector<CoverCandidate> candidates = MakeCandidates(n, attrs, 42);
  AttrSet target;
  for (size_t a = 0; a < attrs; ++a) {
    target.insert(StrCat("a", a));
  }
  size_t covers = 0;
  for (auto _ : state) {
    std::vector<Cover> result =
        EnumerateMinimalCovers(candidates, target, /*max_covers=*/4096);
    covers = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["covers"] = static_cast<double>(covers);
}

void BM_ComputeComplementWithFragments(benchmark::State& state) {
  // Example 2.3's R1(A,B,C,...) widened to `width` attributes, with one
  // two-attribute fragment view per non-key attribute: the cover count is
  // combinatorial in `width`.
  size_t width = static_cast<size_t>(state.range(0));
  auto catalog = std::make_shared<Catalog>();
  std::vector<Attribute> attrs;
  attrs.push_back({"A", ValueType::kInt});
  for (size_t i = 1; i < width; ++i) {
    attrs.push_back({StrCat("X", i), ValueType::kInt});
  }
  Check(catalog->AddRelation("R", Schema(attrs)), "rel");
  Check(catalog->AddKey("R", {"A"}), "key");
  std::vector<ViewDef> views;
  for (size_t i = 1; i < width; ++i) {
    // Two fragments per attribute: doubles the candidate pool.
    views.push_back(ViewDef{
        StrCat("F", i),
        Expr::Project({"A", StrCat("X", i)}, Expr::Base("R"))});
    views.push_back(ViewDef{
        StrCat("G", i),
        Expr::Project({"A", StrCat("X", i)}, Expr::Base("R"))});
  }
  ComplementOptions options;
  options.max_covers = 4096;
  size_t covers = 0;
  for (auto _ : state) {
    ComplementResult result =
        Unwrap(ComputeComplement(views, *catalog, options), "complement");
    covers = result.per_base[0].cover_labels.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["covers"] = static_cast<double>(covers);
}

BENCHMARK(BM_EnumerateCovers)
    ->Args({4, 8})
    ->Args({8, 8})
    ->Args({12, 8})
    ->Args({16, 8})
    ->Args({8, 12})
    ->Args({8, 16})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_ComputeComplementWithFragments)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Arg(9)
    ->Unit(benchmark::kMicrosecond);

// --json: fixed-iteration sweep over the same grids, written to
// BENCH_covers.json for CI artifact collection.
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
  const std::pair<size_t, size_t> kEnumerations[] = {
      {4, 8}, {8, 8}, {12, 8}, {16, 8}, {8, 12}, {8, 16}};
  for (const auto& [n, attrs] : kEnumerations) {
    std::vector<CoverCandidate> candidates = MakeCandidates(n, attrs, 42);
    AttrSet target;
    for (size_t a = 0; a < attrs; ++a) {
      target.insert(StrCat("a", a));
    }
    size_t covers = 0;
    BenchRow row;
    row.name = StrCat("enumerate_covers/candidates=", n, "/attrs=", attrs);
    row.threads = 1;  // Cover enumeration runs on the calling thread.
    row.latency = SummarizeLatencies(MeasureLatenciesUs(10, [&] {
      std::vector<Cover> result =
          EnumerateMinimalCovers(candidates, target, /*max_covers=*/4096);
      covers = result.size();
      benchmark::DoNotOptimize(result);
    }));
    row.counters["covers"] = static_cast<double>(covers);
    rows.push_back(std::move(row));
  }
  for (size_t width : {size_t{3}, size_t{5}, size_t{7}, size_t{9}}) {
    auto catalog = std::make_shared<Catalog>();
    std::vector<Attribute> attrs;
    attrs.push_back({"A", ValueType::kInt});
    for (size_t i = 1; i < width; ++i) {
      attrs.push_back({StrCat("X", i), ValueType::kInt});
    }
    Check(catalog->AddRelation("R", Schema(attrs)), "rel");
    Check(catalog->AddKey("R", {"A"}), "key");
    std::vector<ViewDef> views;
    for (size_t i = 1; i < width; ++i) {
      views.push_back(ViewDef{
          StrCat("F", i),
          Expr::Project({"A", StrCat("X", i)}, Expr::Base("R"))});
      views.push_back(ViewDef{
          StrCat("G", i),
          Expr::Project({"A", StrCat("X", i)}, Expr::Base("R"))});
    }
    ComplementOptions options;
    options.max_covers = 4096;
    size_t covers = 0;
    BenchRow row;
    row.name = StrCat("complement_fragments/width=", width);
    row.threads = 1;  // So does ComputeComplement.
    row.latency = SummarizeLatencies(MeasureLatenciesUs(5, [&] {
      ComplementResult result =
          Unwrap(ComputeComplement(views, *catalog, options), "complement");
      covers = result.per_base[0].cover_labels.size();
      benchmark::DoNotOptimize(result);
    }));
    row.counters["covers"] = static_cast<double>(covers);
    rows.push_back(std::move(row));
  }
  PrintBenchRows(rows);
  WriteBenchJson("covers", rows);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dwc

int main(int argc, char** argv) { return dwc::bench::Main(argc, argv); }
