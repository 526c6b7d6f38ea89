#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "algebra/predicate.h"
#include "util/checksum.h"

namespace perfbench {

using dwc::Expr;
using dwc::Tuple;
using dwc::Value;

void Die(const std::string& what, const dwc::Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) {
    return 0;
  }
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(std::ceil(q * values->size()));
  return (*values)[std::clamp<size_t>(rank, 1, values->size()) - 1];
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

FastFigures Fastest(std::vector<Slice> slices) {
  std::erase_if(slices, [](const Slice& slice) {
    return slice.latency_us.empty() || slice.seconds <= 0;
  });
  std::vector<std::pair<double, size_t>> ranked;
  std::vector<double> per_s;
  for (size_t s = 0; s < slices.size(); ++s) {
    ranked.emplace_back(Median(slices[s].latency_us), s);
    per_s.push_back(static_cast<double>(slices[s].completed) /
                    slices[s].seconds);
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.resize((ranked.size() + 3) / 4);
  std::vector<double> latency_us;
  for (const auto& [median, s] : ranked) {
    latency_us.insert(latency_us.end(), slices[s].latency_us.begin(),
                      slices[s].latency_us.end());
  }
  FastFigures figures;
  figures.p50_us = Median(std::move(latency_us));
  figures.per_s = Quantile(&per_s, 0.75);
  return figures;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double StoredPerSourceTuple(const dwc::Warehouse& warehouse,
                            const dwc::Database& sources) {
  double stored = 0;
  for (const auto& [name, rel] : warehouse.state().relations()) {
    stored += static_cast<double>(rel->size());
  }
  double base = 0;
  for (const auto& [name, rel] : sources.relations()) {
    base += static_cast<double>(rel->size());
  }
  return base > 0 ? stored / base : 0;
}

uint64_t WarehouseDigest(const dwc::Warehouse& warehouse,
                         const std::vector<std::string>& aggregates) {
  uint64_t digest = dwc::StateDigest(warehouse.state()).Combined();
  for (const std::string& name : aggregates) {
    const dwc::AggregateView* view = warehouse.FindAggregate(name);
    uint64_t table = view == nullptr
                         ? 0
                         : dwc::RelationDigest(view->materialized());
    digest ^= dwc::Mix64(dwc::StringDigest(name) ^ table);
  }
  return digest;
}

Figure1::Figure1(int64_t dim_clerks, size_t fact, uint64_t seed)
    : dim(dim_clerks) {
  catalog = std::make_shared<dwc::Catalog>();
  Check(catalog->AddRelation("Emp",
                             dwc::Schema({{"clerk", dwc::ValueType::kInt},
                                          {"age", dwc::ValueType::kInt}})),
        "add Emp");
  Check(catalog->AddKey("Emp", {"clerk"}), "key Emp");
  Check(catalog->AddRelation("Sale",
                             dwc::Schema({{"item", dwc::ValueType::kInt},
                                          {"clerk", dwc::ValueType::kInt}})),
        "add Sale");
  db = dwc::Database(catalog);
  Check(db.AddEmptyRelation("Emp", *catalog->FindSchema("Emp")), "Emp");
  Check(db.AddEmptyRelation("Sale", *catalog->FindSchema("Sale")), "Sale");
  dwc::Rng rng(seed);
  dwc::Relation* emp = db.FindMutableRelation("Emp");
  for (int64_t clerk = 0; clerk < dim; ++clerk) {
    emp->Insert(Tuple({Value::Int(clerk), Value::Int(rng.Range(18, 65))}));
  }
  dwc::Relation* sale = db.FindMutableRelation("Sale");
  items.reserve(fact);
  while (sale->size() < fact) {
    Tuple tuple = NewSale(&rng);
    int64_t item = tuple.at(0).AsInt();
    if (sale->Insert(std::move(tuple))) {
      items.push_back(item);
    }
  }
  views.push_back(
      dwc::ViewDef{"Sold", Expr::Join(Expr::Base("Sale"), Expr::Base("Emp"))});
}

Tuple Figure1::NewSale(dwc::Rng* rng) const {
  // Sales go to the first half of the clerks (the rest form C_Emp), except
  // for one in twenty that names a clerk Emp does not know (C_Sale).
  int64_t clerk = rng->Chance(0.05) ? dim + rng->Range(0, 99)
                                    : rng->Range(0, std::max<int64_t>(
                                                        1, dim / 2) - 1);
  return Tuple({Value::Int(rng->Range(0, int64_t{1} << 40)),
                Value::Int(clerk)});
}

const char* QueryClassName(int klass) {
  switch (klass) {
    case kBroad:
      return "broad";
    case kPoint:
      return "point";
    case kAnti:
      return "anti";
    case kJoin:
      return "join";
  }
  return "unknown";
}

dwc::ExprRef MakeQuery(int klass, int64_t item) {
  switch (klass) {
    case kBroad:
      return Expr::Union(Expr::Project({"clerk"}, Expr::Base("Sale")),
                         Expr::Project({"clerk"}, Expr::Base("Emp")));
    case kPoint:
      return Expr::Project(
          {"age"},
          Expr::Join(Expr::Select(dwc::Predicate::AttrEq("item",
                                                         Value::Int(item)),
                                  Expr::Base("Sale")),
                     Expr::Base("Emp")));
    case kAnti:
      return Expr::Difference(Expr::Project({"clerk"}, Expr::Base("Emp")),
                              Expr::Project({"clerk"}, Expr::Base("Sale")));
    default:
      return Expr::Join(Expr::Base("Sale"), Expr::Base("Emp"));
  }
}

bool SameAnswer(const dwc::Warehouse& warehouse, const dwc::Source& source,
                const dwc::ExprRef& query, std::string* why) {
  dwc::Result<dwc::Relation> ours = warehouse.AnswerQuery(query);
  dwc::Result<dwc::Relation> truth = source.AnswerQuery(query);
  if (!ours.ok() || !truth.ok()) {
    *why = !ours.ok() ? ours.status().ToString() : truth.status().ToString();
    return false;
  }
  if (!ours.value().SameContentAs(truth.value())) {
    *why = "warehouse answer (" + std::to_string(ours.value().size()) +
           " rows) differs from the source's (" +
           std::to_string(truth.value().size()) + " rows)";
    return false;
  }
  return true;
}

}  // namespace perfbench
