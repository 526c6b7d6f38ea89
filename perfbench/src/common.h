#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "algebra/view.h"
#include "relational/catalog.h"
#include "relational/database.h"
#include "util/rng.h"
#include "util/status.h"
#include "warehouse/source.h"
#include "warehouse/warehouse.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Where the traced run writes its span dump.
  std::string trace_file;
  // Scratch space for storage directories (inside the checkout).
  std::string work_dir;
  // Oracle self-test: corrupt the sources behind the warehouse's back just
  // before the final checks, which every check must then reject.
  bool plant_wrong_answer = false;
};

// What one workload run reports: named metrics with units, the operation
// tallies and the oracle's findings.
struct RunReport {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // One line per failed oracle check; empty when every check passed.
  std::vector<std::string> oracle_failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // An oracle check counts as one attempted operation, and a miss as a
  // failed one. A miss is reported by the first line of `what`, since
  // CheckConsistency's message carries whole relations.
  void OracleCheck(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      oracle_failures.push_back(what.substr(0, what.find('\n')));
    }
  }
};

// Setup failures abort the run (no result is printed): they mean the
// benchmark cannot measure anything, not that an operation failed.
[[noreturn]] void Die(const std::string& what, const dwc::Status& status);

template <typename T>
T Unwrap(dwc::Result<T> result, const char* what) {
  if (!result.ok()) {
    Die(what, result.status());
  }
  return std::move(result).value();
}

inline void Check(const dwc::Status& status, const char* what) {
  if (!status.ok()) {
    Die(what, status);
  }
}

// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

// One stretch of a run's measured interval. The host's speed swings by up
// to half for seconds at a time and only ever slows the benchmark down, so
// the bounded latency and rate are those of a run's fastest stretches (see
// Fastest).
struct Slice {
  std::vector<double> latency_us;  // Untraced operations.
  uint64_t completed = 0;          // Every operation, traced or not.
  double seconds = 0;
};

// The figures of a run's fastest stretches. `p50_us` is the median latency
// of the operations in the quarter of `slices` (at least one) with the
// lowest median latency; a slice's median rests on the common small
// operations, so it ranks slices by the machine's speed rather than by how
// many of the rare slow operations (checkpoints, large batches) fell into
// them. `per_s` is the upper quartile of the slices' completion rates.
struct FastFigures {
  double p50_us = 0;
  double per_s = 0;
};
FastFigures Fastest(std::vector<Slice> slices);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Σ|warehouse relations| / Σ|base relations|.
double StoredPerSourceTuple(const dwc::Warehouse& warehouse,
                            const dwc::Database& sources);

// Digest of everything a restart must reproduce: every warehouse relation
// and every named aggregate table.
uint64_t WarehouseDigest(const dwc::Warehouse& warehouse,
                         const std::vector<std::string>& aggregates);

// The Figure 1 scenario at scale: Emp(clerk KEY, age) with `dim` clerks and
// Sale(item, clerk) with `fact` rows, warehouse view Sold = Sale ⋈ Emp. No
// inclusion dependency is declared and about 5% of the sales name a clerk
// missing from Emp, so both complements C_Sale and C_Emp hold tuples.
struct Figure1 {
  std::shared_ptr<dwc::Catalog> catalog;
  dwc::Database db;
  std::vector<dwc::ViewDef> views;
  // Items present at generation time; the point class draws its key here.
  std::vector<int64_t> items;
  int64_t dim = 0;

  Figure1(int64_t dim_clerks, size_t fact, uint64_t seed);

  // A Sale row with a fresh item, drawn like the generated ones.
  dwc::Tuple NewSale(dwc::Rng* rng) const;
};

// The four query classes over the base relations, answered through W⁻¹.
enum QueryClass { kBroad = 0, kPoint = 1, kAnti = 2, kJoin = 3 };
constexpr int kQueryClasses = 4;
const char* QueryClassName(int klass);
// `item` is the selection key of the point class (ignored otherwise).
dwc::ExprRef MakeQuery(int klass, int64_t item);

// Theorem 3.1 check: the warehouse's translated answer equals the source's
// direct answer. The source answer is a source query: run it only after
// the workload's own query count has been read.
bool SameAnswer(const dwc::Warehouse& warehouse, const dwc::Source& source,
                const dwc::ExprRef& query, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
