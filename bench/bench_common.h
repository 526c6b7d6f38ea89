#ifndef DWC_BENCH_BENCH_COMMON_H_
#define DWC_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/warehouse_spec.h"
#include "relational/database.h"
#include "util/rng.h"
#include "warehouse/warehouse.h"

namespace dwc {
namespace bench {

// Benchmarks cannot return Status; die loudly instead.
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::cerr << "benchmark setup failed (" << what
              << "): " << status.ToString() << "\n";
    std::abort();
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

// A scaled version of the Figure 1 scenario: Emp (keyed dimension with
// `dim` clerks) and Sale (fact with `fact` rows referencing clerks),
// warehouse view Sold = Sale |x| Emp. With `referential` the IND
// clerk(Sale) <= clerk(Emp) is declared (emptying C_Sale, Example 2.4).
// Sales reference only the first half of the clerks, so C_Emp (clerks
// without sales — the paper's Paula) holds about dim/2 tuples.
struct ScaledFigure1 {
  std::shared_ptr<Catalog> catalog;
  Database db;
  std::vector<ViewDef> views;

  ScaledFigure1(size_t dim, size_t fact, bool referential, uint64_t seed) {
    catalog = std::make_shared<Catalog>();
    Check(catalog->AddRelation(
              "Emp", Schema({{"clerk", ValueType::kInt},
                             {"age", ValueType::kInt}})),
          "add Emp");
    Check(catalog->AddKey("Emp", {"clerk"}), "key Emp");
    Check(catalog->AddRelation(
              "Sale", Schema({{"item", ValueType::kInt},
                              {"clerk", ValueType::kInt}})),
          "add Sale");
    if (referential) {
      Check(catalog->AddInclusion(
                InclusionDependency{"Sale", {"clerk"}, "Emp", {"clerk"}}),
            "IND");
    }
    db = Database(catalog);
    Check(db.AddEmptyRelation("Emp", *catalog->FindSchema("Emp")), "emp rel");
    Check(db.AddEmptyRelation("Sale", *catalog->FindSchema("Sale")),
          "sale rel");
    Rng rng(seed);
    Relation* emp = db.FindMutableRelation("Emp");
    for (size_t i = 0; i < dim; ++i) {
      emp->Insert(Tuple({Value::Int(static_cast<int64_t>(i)),
                         Value::Int(rng.Range(18, 65))}));
    }
    Relation* sale = db.FindMutableRelation("Sale");
    size_t inserted = 0;
    int64_t referenced = std::max<int64_t>(1, static_cast<int64_t>(dim) / 2);
    while (inserted < fact) {
      Tuple tuple({Value::Int(rng.Range(0, 1 << 24)),
                   Value::Int(rng.Range(0, referenced - 1))});
      if (sale->Insert(std::move(tuple))) {
        ++inserted;
      }
    }
    views.push_back(
        ViewDef{"Sold", Expr::Join(Expr::Base("Sale"), Expr::Base("Emp"))});
  }

  // A batch of `n` fresh Sale rows referencing existing clerks.
  UpdateOp MakeInsertBatch(size_t n, Rng* rng) const {
    const Relation* sale = db.FindRelation("Sale");
    size_t dim = db.FindRelation("Emp")->size();
    UpdateOp op;
    op.relation = "Sale";
    while (op.inserts.size() < n) {
      Tuple tuple({Value::Int(rng->Range(0, 1 << 30)),
                   Value::Int(rng->Range(0, static_cast<int64_t>(dim) - 1))});
      if (!sale->Contains(tuple)) {
        op.inserts.push_back(std::move(tuple));
      }
    }
    return op;
  }
};

// --- JSON artifacts (custom-main benchmarks) --------------------------------
//
// Benchmarks with their own main() accept `--json` and then write a
// machine-readable BENCH_<name>.json next to the binary (one row per
// configuration: ops/sec, p50/p99 latency, thread count, the machine's
// hardware threads, extra counters).
// CI and EXPERIMENTS.md plots consume these artifacts.

// True when `--json` appears among the arguments.
inline bool JsonRequested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return true;
    }
  }
  return false;
}

struct LatencyStats {
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// Runs `op` once untimed (warmup), then `iterations` timed runs; returns
// per-iteration latencies in microseconds. The building block for the
// --json measurement loops (google-benchmark's adaptive iteration count
// would make artifact timings run-dependent; a fixed count keeps the JSON
// rows comparable across commits).
template <typename F>
inline std::vector<double> MeasureLatenciesUs(size_t iterations, F&& op) {
  op();
  std::vector<double> latencies;
  latencies.reserve(iterations);
  for (size_t i = 0; i < iterations; ++i) {
    auto start = std::chrono::steady_clock::now();
    op();
    latencies.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count());
  }
  return latencies;
}


// Order statistics over per-iteration latencies (microseconds).
inline LatencyStats SummarizeLatencies(std::vector<double> latencies_us) {
  LatencyStats stats;
  if (latencies_us.empty()) {
    return stats;
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  auto quantile = [&](double q) {
    size_t idx = static_cast<size_t>(q * (latencies_us.size() - 1));
    return latencies_us[idx];
  };
  stats.p50_us = quantile(0.5);
  stats.p99_us = quantile(0.99);
  double total_us = 0;
  for (double v : latencies_us) {
    total_us += v;
  }
  stats.ops_per_sec = total_us > 0 ? latencies_us.size() * 1e6 / total_us : 0;
  return stats;
}

// One benchmark configuration's results.
struct BenchRow {
  std::string name;
  size_t threads = 0;
  LatencyStats latency;
  std::map<std::string, double> counters;
};

// Writes BENCH_<bench_name>.json in the working directory.
inline void WriteBenchJson(const std::string& bench_name,
                           const std::vector<BenchRow>& rows) {
  std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::abort();
  }
  // The machine's hardware threads, so a row read later says what it ran on.
  unsigned hw_threads = std::thread::hardware_concurrency();
  out << "{\n  \"benchmark\": \"" << bench_name << "\",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    out << "    {\"name\": \"" << row.name << "\", \"threads\": "
        << row.threads << ", \"hw_threads\": " << hw_threads
        << ", \"ops_per_sec\": " << row.latency.ops_per_sec
        << ", \"p50_us\": " << row.latency.p50_us
        << ", \"p99_us\": " << row.latency.p99_us;
    for (const auto& [key, value] : row.counters) {
      out << ", \"" << key << "\": " << value;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

// Console rendering of JSON-mode rows (one line per row), so --json runs
// are still human-readable in CI logs.
inline void PrintBenchRows(const std::vector<BenchRow>& rows) {
  std::printf("%-40s %12s %12s %12s\n", "configuration", "ops/sec", "p50 us",
              "p99 us");
  for (const BenchRow& row : rows) {
    std::printf("%-40s %12.1f %12.1f %12.1f", row.name.c_str(),
                row.latency.ops_per_sec, row.latency.p50_us,
                row.latency.p99_us);
    for (const auto& [key, value] : row.counters) {
      std::printf("  %s=%.3g", key.c_str(), value);
    }
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace dwc

#endif  // DWC_BENCH_BENCH_COMMON_H_
