#include "core/warehouse_spec.h"

#include <algorithm>

#include "util/string_util.h"

namespace dwc {

namespace {

// The dangling rule over the stored complements (see
// WarehouseSpec::disjoint_facts).
std::vector<DisjointFact> DeriveDisjointFacts(
    const ComplementResult& complement, const Catalog& catalog) {
  std::vector<DisjointFact> facts;
  auto add = [&facts](std::string left, std::string right, const AttrSet& on) {
    for (const DisjointFact& fact : facts) {
      if (fact.left == left && fact.right == right && fact.on == on) {
        return;
      }
    }
    facts.push_back(DisjointFact{std::move(left), std::move(right), on});
  };
  auto stored = [&complement](const std::string& base) {
    const BaseComplementInfo* info = complement.FindBase(base);
    return info != nullptr && !info->provably_empty ? info : nullptr;
  };
  for (const PsjView& view : complement.views) {
    if (view.bases.size() != 2 ||
        view.predicate->kind() != Predicate::Kind::kTrue) {
      continue;
    }
    for (size_t side = 0; side < 2; ++side) {
      const std::string& r = view.bases[side];
      const std::string& s = view.bases[1 - side];
      const AttrSet r_attrs = catalog.FindSchema(r)->attr_names();
      const BaseComplementInfo* c_r = stored(r);
      if (c_r == nullptr ||
          !std::includes(view.attrs.begin(), view.attrs.end(),
                         r_attrs.begin(), r_attrs.end())) {
        continue;
      }
      AttrSet on;
      for (const std::string& attr : r_attrs) {
        if (catalog.FindSchema(s)->Contains(attr)) {
          on.insert(attr);
        }
      }
      if (on.empty()) {
        continue;
      }
      if (const BaseComplementInfo* c_s = stored(s)) {
        add(c_r->complement_name, c_s->complement_name, on);
      }
      for (const PsjView& other : complement.views) {
        if (other.InvolvesBase(s) &&
            std::includes(other.attrs.begin(), other.attrs.end(), on.begin(),
                          on.end())) {
          add(c_r->complement_name, other.name, on);
        }
      }
    }
  }
  return facts;
}

}  // namespace

WarehouseSpec::WarehouseSpec(std::shared_ptr<const Catalog> catalog,
                             std::vector<ViewDef> views,
                             ComplementResult complement,
                             std::map<std::string, Schema> warehouse_schemas)
    : catalog_(std::move(catalog)),
      views_(std::move(views)),
      complement_(std::move(complement)),
      warehouse_schemas_(std::move(warehouse_schemas)),
      disjoint_facts_(DeriveDisjointFacts(complement_, *catalog_)),
      interner_(std::make_shared<ExprInterner>()) {
  // Cross-expression CSE: intern every definition the spec carries so that
  // structurally equal subtrees — which the paper's constructions repeat
  // liberally — become shared canonical nodes with stable ids.
  for (ViewDef& view : views_) {
    view.expr = interner_->Intern(view.expr);
  }
  for (ViewDef& comp : complement_.complements) {
    comp.expr = interner_->Intern(comp.expr);
  }
  for (auto& [base, inverse] : complement_.inverses) {
    (void)base;
    inverse = interner_->Intern(inverse);
  }
}

std::vector<ViewDef> WarehouseSpec::AllWarehouseViews() const {
  std::vector<ViewDef> all = views_;
  all.insert(all.end(), complement_.complements.begin(),
             complement_.complements.end());
  return all;
}

const ExprRef* WarehouseSpec::FindInverse(const std::string& base) const {
  auto it = complement_.inverses.find(base);
  return it == complement_.inverses.end() ? nullptr : &it->second;
}

const Schema* WarehouseSpec::FindWarehouseSchema(
    const std::string& name) const {
  auto it = warehouse_schemas_.find(name);
  return it == warehouse_schemas_.end() ? nullptr : &it->second;
}

SchemaResolver WarehouseSpec::WarehouseResolver() const {
  // Capture the schema map by pointer: the spec outlives translation calls.
  const auto* schemas = &warehouse_schemas_;
  return [schemas](const std::string& name) -> const Schema* {
    auto it = schemas->find(name);
    return it == schemas->end() ? nullptr : &it->second;
  };
}

std::string WarehouseSpec::ToString() const {
  std::string out = "warehouse views V:\n";
  for (const ViewDef& view : views_) {
    out += StrCat("  ", view.name, " = ", view.expr->ToString(), "\n");
  }
  out += "complement C:\n";
  if (complement_.complements.empty()) {
    out += "  (empty)\n";
  }
  for (const ViewDef& view : complement_.complements) {
    out += StrCat("  ", view.name, " = ", view.expr->ToString(), "\n");
  }
  out += "inverses W^-1:\n";
  for (const auto& [base, inverse] : complement_.inverses) {
    out += StrCat("  ", base, " = ", inverse->ToString(), "\n");
  }
  return out;
}

Result<WarehouseSpec> SpecifyWarehouse(std::shared_ptr<const Catalog> catalog,
                                       std::vector<ViewDef> views,
                                       const ComplementOptions& options) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("catalog must not be null");
  }
  DWC_ASSIGN_OR_RETURN(ComplementResult complement,
                       ComputeComplement(views, *catalog, options));

  // Infer schemas of all warehouse relations. Views see base relations;
  // complement definitions may also reference view names.
  std::map<std::string, Schema> schemas;
  SchemaResolver base_resolver = ResolverFromCatalog(*catalog);
  auto combined = [&](const std::string& name) -> const Schema* {
    const Schema* schema = base_resolver(name);
    if (schema != nullptr) {
      return schema;
    }
    auto it = schemas.find(name);
    return it == schemas.end() ? nullptr : &it->second;
  };
  for (const ViewDef& view : views) {
    if (schemas.count(view.name) > 0 || catalog->HasRelation(view.name)) {
      return Status::AlreadyExists(
          StrCat("duplicate warehouse relation name '", view.name, "'"));
    }
    DWC_ASSIGN_OR_RETURN(Schema schema, InferSchema(*view.expr, combined));
    schemas.emplace(view.name, std::move(schema));
  }
  for (const ViewDef& comp : complement.complements) {
    if (schemas.count(comp.name) > 0 || catalog->HasRelation(comp.name)) {
      return Status::AlreadyExists(
          StrCat("complement name '", comp.name,
                 "' collides with an existing relation; pick a different "
                 "ComplementOptions::name_prefix"));
    }
    DWC_ASSIGN_OR_RETURN(Schema schema, InferSchema(*comp.expr, combined));
    schemas.emplace(comp.name, std::move(schema));
  }
  return WarehouseSpec(std::move(catalog), std::move(views),
                       std::move(complement), std::move(schemas));
}

}  // namespace dwc
