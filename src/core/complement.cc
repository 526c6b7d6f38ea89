#include "core/complement.h"

#include <algorithm>

#include "algebra/rewriter.h"
#include "algebra/simplifier.h"
#include "core/covers.h"
#include "util/string_util.h"

namespace dwc {

const BaseComplementInfo* ComplementResult::FindBase(
    const std::string& base) const {
  for (const BaseComplementInfo& info : per_base) {
    if (info.base == base) {
      return &info;
    }
  }
  return nullptr;
}

namespace {

bool IsEmptyNode(const ExprRef& expr) {
  return expr != nullptr && expr->kind() == Expr::Kind::kEmpty;
}

// Union of `terms` with structural deduplication; Empty(schema) if none.
ExprRef UnionOfTerms(std::vector<ExprRef> terms, const Schema& schema) {
  std::vector<ExprRef> unique;
  for (ExprRef& term : terms) {
    if (IsEmptyNode(term)) {
      continue;
    }
    bool duplicate = false;
    for (const ExprRef& existing : unique) {
      if (existing->Equals(*term)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      unique.push_back(std::move(term));
    }
  }
  if (unique.empty()) {
    return Expr::Empty(schema);
  }
  return Expr::UnionAll(unique);
}

bool PredicateIsTrue(const PredicateRef& predicate) {
  return predicate->kind() == Predicate::Kind::kTrue;
}

// True if `view` is a pure projection of `base` alone (no other bases, no
// selection). Such views are lossless fragments of `base`.
bool IsPureFragmentOf(const PsjView& view, const std::string& base) {
  return view.bases.size() == 1 && view.bases[0] == base &&
         PredicateIsTrue(view.predicate);
}

// Sufficient static test that every tuple of `base` participates in the join
// of `view` (so pi_{attr(base)}(view) == base and the complement term
// vanishes — Example 2.4, star schemata in Section 5).
//
// Greedy closure: starting from J = {base}, repeatedly absorb a base M whose
// *entire* set of attributes shared with the other bases of the view is
// shared with a single already-absorbed base P and an inclusion dependency
// pi_S(P) <= pi_S(M) covers exactly those attributes. Then pi_S(join so far)
// is a subset of pi_S(P) is a subset of pi_S(M): adding M loses no tuples.
// This is sufficient, not necessary; complements that are empty for deeper
// reasons are still computed, just not statically dropped.
bool JoinIsTotalForBase(const PsjView& view, const std::string& base,
                        const Catalog& catalog) {
  if (!PredicateIsTrue(view.predicate)) {
    return false;
  }
  if (view.bases.size() == 1) {
    return true;
  }
  std::set<std::string> absorbed = {base};
  std::vector<std::string> pending;
  for (const std::string& other : view.bases) {
    if (other != base) {
      pending.push_back(other);
    }
  }
  auto shared_attrs = [&catalog](const std::string& a, const std::string& b) {
    AttrSet result;
    const Schema* sa = catalog.FindSchema(a);
    const Schema* sb = catalog.FindSchema(b);
    for (const Attribute& attr : sa->attributes()) {
      if (sb->Contains(attr.name)) {
        result.insert(attr.name);
      }
    }
    return result;
  };
  bool progress = true;
  while (!pending.empty() && progress) {
    progress = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      const std::string& m = pending[i];
      // All attributes M shares with any other base of the view.
      AttrSet shared_with_all;
      for (const std::string& other : view.bases) {
        if (other == m) {
          continue;
        }
        AttrSet s = shared_attrs(other, m);
        shared_with_all.insert(s.begin(), s.end());
      }
      // Look for an absorbed P with an IND pi_S(P) <= pi_S(M) where S covers
      // all shared attributes.
      bool ok = false;
      for (const std::string& p : absorbed) {
        for (const InclusionDependency& ind : catalog.inclusions()) {
          if (!ind.IsCommonAttrForm()) {
            continue;
          }
          if (ind.lhs_relation != p || ind.rhs_relation != m) {
            continue;
          }
          AttrSet ind_attrs(ind.lhs_attrs.begin(), ind.lhs_attrs.end());
          if (ind_attrs == shared_with_all) {
            ok = true;
            break;
          }
        }
        if (ok) {
          break;
        }
      }
      if (ok) {
        absorbed.insert(m);
        pending.erase(pending.begin() + i);
        progress = true;
        break;
      }
    }
  }
  return pending.empty();
}

}  // namespace

Result<ComplementResult> ComputeComplement(const std::vector<ViewDef>& views,
                                           const Catalog& catalog,
                                           const ComplementOptions& options) {
  DWC_ASSIGN_OR_RETURN(std::vector<PsjView> psj_views,
                       AnalyzeAllPsj(views, catalog));

  ComplementResult result;
  std::map<std::string, ExprRef> inverse_so_far;

  for (const std::string& base : catalog.IndTopologicalOrder()) {
    const Schema& schema = *catalog.FindSchema(base);
    BaseComplementInfo info;
    info.base = base;
    info.complement_name = options.name_prefix + base;

    // --- R̂_i: union of pi_{R_i}(V_j) over views exposing all of attr(R_i).
    std::vector<ExprRef> rhat_terms;
    bool provably_empty = false;
    for (const PsjView& view : psj_views) {
      if (!view.InvolvesBase(base)) {
        continue;
      }
      ExprRef term = ProjectOntoSchema(Expr::Base(view.name), view.attrs,
                                       schema);
      if (IsEmptyNode(term)) {
        continue;
      }
      rhat_terms.push_back(std::move(term));
      // pi_{R_i}(V_j) == R_i when the join is total for R_i and nothing is
      // selected away: the complement term is then always empty.
      if (options.use_constraints &&
          JoinIsTotalForBase(view, base, catalog)) {
        provably_empty = true;
      }
      if (IsPureFragmentOf(view, base) && view.attrs == schema.attr_names()) {
        provably_empty = true;  // The view is a verbatim copy of R_i.
      }
    }
    info.rhat = UnionOfTerms(rhat_terms, schema);

    // --- Covers and R̂_i^ir (only with constraints and a declared key).
    std::vector<ExprRef> rhat_ir_terms;          // Over views ∪ bases.
    std::vector<ExprRef> rhat_ir_inverse_terms;  // Base refs substituted.
    std::optional<KeyConstraint> key =
        options.use_constraints ? catalog.FindKey(base) : std::nullopt;
    if (key.has_value()) {
      std::vector<CoverCandidate> candidates;
      // View candidates: views over R_i whose schema contains the key.
      for (const PsjView& view : psj_views) {
        if (!view.InvolvesBase(base)) {
          continue;
        }
        bool has_key = true;
        for (const std::string& attr : key->attrs) {
          if (view.attrs.find(attr) == view.attrs.end()) {
            has_key = false;
            break;
          }
        }
        if (!has_key) {
          continue;
        }
        CoverCandidate candidate;
        candidate.label = view.name;
        candidate.expr = Expr::Base(view.name);
        for (const std::string& attr : view.attrs) {
          if (schema.Contains(attr)) {
            candidate.attrs.insert(attr);
          }
        }
        candidates.push_back(std::move(candidate));
      }
      // IND candidates: pi_X(R_k) for pi_X(R_k) <= pi_X(R_i) with key <= X.
      // General (renaming) INDs — footnote 3 — contribute
      // rho_{lhs->rhs}(pi_{lhs}(R_k)), whose schema lies inside attr(R_i).
      for (const InclusionDependency& ind : catalog.inclusions()) {
        if (ind.rhs_relation != base) {
          continue;
        }
        AttrSet x(ind.rhs_attrs.begin(), ind.rhs_attrs.end());
        bool has_key = true;
        for (const std::string& attr : key->attrs) {
          if (x.find(attr) == x.end()) {
            has_key = false;
            break;
          }
        }
        if (!has_key) {
          continue;
        }
        CoverCandidate candidate;
        candidate.expr =
            Expr::Project(ind.lhs_attrs, Expr::Base(ind.lhs_relation));
        if (!ind.IsCommonAttrForm()) {
          std::map<std::string, std::string> renames;
          for (size_t i = 0; i < ind.lhs_attrs.size(); ++i) {
            if (ind.lhs_attrs[i] != ind.rhs_attrs[i]) {
              renames[ind.lhs_attrs[i]] = ind.rhs_attrs[i];
            }
          }
          candidate.expr = Expr::Rename(std::move(renames), candidate.expr);
        }
        candidate.label = candidate.expr->ToString();
        candidate.attrs = x;
        candidate.from_ind = true;
        candidates.push_back(std::move(candidate));
      }

      std::vector<Cover> covers = EnumerateMinimalCovers(
          candidates, schema.attr_names(), options.max_covers);
      for (const Cover& cover : covers) {
        std::vector<std::string> labels;
        std::vector<ExprRef> members;
        std::vector<ExprRef> inverse_members;
        bool all_pure_fragments = true;
        for (size_t idx : cover) {
          const CoverCandidate& candidate = candidates[idx];
          labels.push_back(candidate.label);
          members.push_back(candidate.expr);
          if (candidate.from_ind) {
            // Substitute the referenced base by its (already computed)
            // inverse; IND acyclicity guarantees availability.
            inverse_members.push_back(
                SubstituteNames(candidate.expr, inverse_so_far));
            all_pure_fragments = false;
          } else {
            inverse_members.push_back(candidate.expr);
            // Is this view a pure projection of `base` (lossless fragment)?
            const PsjView* view = nullptr;
            for (const PsjView& v : psj_views) {
              if (v.name == candidate.label) {
                view = &v;
                break;
              }
            }
            if (view == nullptr || !IsPureFragmentOf(*view, base)) {
              all_pure_fragments = false;
            }
          }
        }
        info.cover_labels.push_back(std::move(labels));
        std::vector<std::string> all_attrs;
        for (const Attribute& attr : schema.attributes()) {
          all_attrs.push_back(attr.name);
        }
        rhat_ir_terms.push_back(
            Expr::Project(all_attrs, Expr::JoinAll(members)));
        rhat_ir_inverse_terms.push_back(
            Expr::Project(all_attrs, Expr::JoinAll(inverse_members)));
        // A cover made purely of projection fragments of R_i reassembles
        // R_i exactly (lossless extension joins along the key, Theorem 2.2 /
        // Example 2.3): the complement is provably empty.
        if (all_pure_fragments) {
          provably_empty = true;
        }
      }
    }
    info.rhat_ir = UnionOfTerms(rhat_ir_terms, schema);
    info.provably_empty = provably_empty;

    // --- Complement definition: C_i = R_i \ (R̂_i ∪ R̂_i^ir).
    if (provably_empty) {
      info.complement_def = Expr::Empty(schema);
    } else {
      ExprRef known = UnionOfTerms({info.rhat, info.rhat_ir}, schema);
      if (IsEmptyNode(known)) {
        info.complement_def = Expr::Base(base);  // R_i \ ∅ = R_i.
      } else {
        info.complement_def = Expr::Difference(Expr::Base(base), known);
      }
    }

    // --- Inverse: R_i = C_i ∪ R̂_i ∪ R̂_i^ir over warehouse names.
    std::vector<ExprRef> inverse_terms;
    if (!provably_empty) {
      inverse_terms.push_back(Expr::Base(info.complement_name));
    }
    inverse_terms.push_back(info.rhat);
    for (ExprRef& term : rhat_ir_inverse_terms) {
      inverse_terms.push_back(std::move(term));
    }
    // Resolver-free simplification collapses the nested projections that
    // inverse substitution introduces (e.g. pi_X(pi_XY(V))).
    info.inverse = Simplify(UnionOfTerms(std::move(inverse_terms), schema));
    inverse_so_far[base] = info.inverse;

    result.per_base.push_back(std::move(info));
  }

  for (const BaseComplementInfo& info : result.per_base) {
    if (!info.provably_empty) {
      result.complements.push_back(
          ViewDef{info.complement_name, info.complement_def});
    }
    result.inverses[info.base] = info.inverse;
  }
  result.views = std::move(psj_views);
  return result;
}

}  // namespace dwc
