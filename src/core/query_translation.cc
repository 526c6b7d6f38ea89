#include "core/query_translation.h"

#include <algorithm>
#include <optional>

#include "algebra/implication.h"
#include "algebra/optimizer.h"
#include "algebra/rewriter.h"
#include "algebra/simplifier.h"
#include "util/string_util.h"

namespace dwc {

namespace {

Status CheckNames(const ExprRef& query, const WarehouseSpec& spec) {
  for (const std::string& name : query->ReferencedNames()) {
    if (spec.FindInverse(name) == nullptr &&
        spec.FindWarehouseSchema(name) == nullptr) {
      return Status::NotFound(
          StrCat("query references '", name,
                 "', which is neither a base relation nor a warehouse view"));
    }
  }
  return Status::Ok();
}

// A query subexpression in the normal form [π_B] [σ_p] (R1 ⋈ … ⋈ Rk): the
// Ri are distinct base relations and every selection sits above the joins.
// Pulling one up is always sound, σ_p(E1) ⋈ E2 = σ_p(E1 ⋈ E2), because a
// natural join keeps every column of E1.
struct Block {
  std::vector<std::string> bases;  // In leaf order.
  PredicateRef predicate;          // The selections conjoined; null for none.
  // The outermost projection's attributes; null for none.
  const std::vector<std::string>* projection = nullptr;
};

PredicateRef Conjoin(const PredicateRef& p, const PredicateRef& q) {
  if (p == nullptr) {
    return q;
  }
  return q == nullptr ? p : Predicate::And(p, q);
}

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

template <typename Names, typename Attrs>
bool AllIn(const Names& names, const Attrs& attrs) {
  for (const std::string& name : names) {
    if (std::find(attrs.begin(), attrs.end(), name) == attrs.end()) {
      return false;
    }
  }
  return true;
}

// The natural join's columns over `bases` in leaf order: each base's
// attributes after those of the bases before it, shared ones once. This is
// the evaluator's order for any join tree with these leaves.
std::vector<std::string> JoinColumns(const std::vector<std::string>& bases,
                                     const Catalog& catalog) {
  std::vector<std::string> order;
  for (const std::string& base : bases) {
    for (const Attribute& attr : catalog.FindSchema(base)->attributes()) {
      if (!Contains(order, attr.name)) {
        order.push_back(attr.name);
      }
    }
  }
  return order;
}

// `block` over the stored view V = [π_A] σ_q(join of V's bases), or null
// when V does not answer it. V answers the block when they join the same
// bases, V keeps every column the block outputs or selects on, and the
// block's selection p implies q: then σ_p(E) = σ_p(σ_q(E)) and
// π_B π_A = π_B turn the block into [π_B] σ_p(V). When p and q are
// equivalent, σ_p is dropped, so p may read columns that V dropped.
ExprRef MatchView(const Block& block, const PsjView& view,
                  const WarehouseSpec& spec) {
  if (view.bases.size() != block.bases.size() ||
      !std::all_of(block.bases.begin(), block.bases.end(),
                   [&view](const std::string& base) {
                     return view.InvolvesBase(base);
                   })) {
    return nullptr;
  }
  // Without a projection the block outputs every join column.
  if (block.projection == nullptr ? !view.is_sj
                                  : !AllIn(*block.projection, view.attrs)) {
    return nullptr;
  }
  if (view.predicate->kind() != Predicate::Kind::kTrue &&
      !Implies(block.predicate != nullptr ? block.predicate
                                          : Predicate::True(),
               view.predicate)) {
    return nullptr;
  }
  ExprRef rewritten = Expr::Base(view.name);
  if (block.predicate != nullptr) {
    const AttrSet selected = block.predicate->Attributes();
    if (AllIn(selected, view.attrs)) {
      rewritten = Expr::Select(block.predicate, rewritten);
    } else if (!AllIn(selected, JoinColumns(block.bases, spec.catalog())) ||
               !Implies(view.predicate, block.predicate)) {
      // p reads a column V dropped, and V's own selection does not
      // already apply it (or p reads a column no base has: the query is
      // ill-typed, and evaluating it reports that).
      return nullptr;
    }
  }
  if (block.projection != nullptr) {
    return Expr::Project(*block.projection, rewritten);
  }
  // Keep the query's column order.
  std::vector<std::string> order = JoinColumns(block.bases, spec.catalog());
  const Schema& schema = *spec.FindWarehouseSchema(view.name);
  for (size_t i = 0; i < order.size(); ++i) {
    if (schema.attribute(i).name != order[i]) {
      return Expr::Project(std::move(order), rewritten);
    }
  }
  return rewritten;
}

// `block` over the best stored view that answers it, or null when none
// does. Among the views that answer it, the first in definition order whose
// selection implies every other's wins — the most selective view, which
// holds the fewest rows; when no view's selection implies all the others',
// the first one wins. Implies reads no state, so a cached plan stays valid.
ExprRef MatchBlock(const Block& block, const WarehouseSpec& spec) {
  std::vector<std::pair<const PsjView*, ExprRef>> candidates;
  for (const PsjView& view : spec.psj_views()) {
    if (ExprRef rewritten = MatchView(block, view, spec)) {
      candidates.emplace_back(&view, std::move(rewritten));
    }
  }
  for (const auto& [view, rewritten] : candidates) {
    if (std::all_of(candidates.begin(), candidates.end(),
                    [view = view](const auto& other) {
                      return other.first == view ||
                             other.first->predicate->kind() ==
                                 Predicate::Kind::kTrue ||
                             Implies(view->predicate, other.first->predicate);
                    })) {
      return rewritten;
    }
  }
  return candidates.empty() ? nullptr : candidates.front().second;
}

// MatchViews on `expr`. Sets `*block` when `expr` itself is in the normal
// form, so that its parent can extend it.
ExprRef MatchNode(const ExprRef& expr, const WarehouseSpec& spec,
                  std::optional<Block>* block) {
  ExprRef rebuilt = expr;
  switch (expr->kind()) {
    case Expr::Kind::kEmpty:
      return expr;
    case Expr::Kind::kBase:
      if (spec.FindInverse(expr->base_name()) == nullptr) {
        return expr;  // A warehouse name.
      }
      block->emplace();
      (*block)->bases.push_back(expr->base_name());
      break;
    case Expr::Kind::kSelect:
    case Expr::Kind::kProject:
    case Expr::Kind::kRename: {
      std::optional<Block> inner;
      ExprRef child = MatchNode(expr->child(), spec, &inner);
      if (expr->kind() == Expr::Kind::kSelect) {
        if (child != expr->child()) {
          rebuilt = Expr::Select(expr->predicate(), child);
        }
        if (inner.has_value()) {
          // σ_p π_B E = π_B σ_p E: a selection over a projection joins the
          // block's selection too.
          inner->predicate = Conjoin(expr->predicate(), inner->predicate);
          *block = std::move(inner);
        }
      } else if (expr->kind() == Expr::Kind::kProject) {
        if (child != expr->child()) {
          rebuilt = Expr::Project(expr->attrs(), child);
        }
        if (inner.has_value()) {
          inner->projection = &expr->attrs();
          *block = std::move(inner);
        }
      } else if (child != expr->child()) {
        rebuilt = Expr::Rename(expr->renames(), child);
      }
      break;
    }
    case Expr::Kind::kJoin:
    case Expr::Kind::kUnion:
    case Expr::Kind::kDifference: {
      std::optional<Block> left;
      std::optional<Block> right;
      ExprRef l = MatchNode(expr->left(), spec, &left);
      ExprRef r = MatchNode(expr->right(), spec, &right);
      if (l != expr->left() || r != expr->right()) {
        rebuilt = expr->kind() == Expr::Kind::kJoin  ? Expr::Join(l, r)
                  : expr->kind() == Expr::Kind::kUnion ? Expr::Union(l, r)
                                                       : Expr::Difference(l, r);
      }
      if (expr->kind() == Expr::Kind::kJoin && left.has_value() &&
          right.has_value() && left->projection == nullptr &&
          right->projection == nullptr &&
          std::none_of(right->bases.begin(), right->bases.end(),
                       [&left](const std::string& base) {
                         return Contains(left->bases, base);
                       })) {
        left->bases.insert(left->bases.end(), right->bases.begin(),
                           right->bases.end());
        left->predicate = Conjoin(left->predicate, right->predicate);
        *block = std::move(left);
      }
      break;
    }
  }
  if (block->has_value()) {
    ExprRef matched = MatchBlock(**block, spec);
    if (matched != nullptr) {
      return matched;
    }
  }
  return rebuilt;
}

// View matching: every subexpression of `query` that a stored view answers
// becomes a read of that view, so that only the base names no view covers
// are left for W^-1. Sound because W stores each view exactly: V = def(V)
// in every state. A query with no view definition in it comes back as the
// same node.
ExprRef MatchViews(const ExprRef& query, const WarehouseSpec& spec) {
  std::optional<Block> block;
  return MatchNode(query, spec, &block);
}

}  // namespace

Result<ExprRef> TranslateQueryRaw(const ExprRef& query,
                                  const WarehouseSpec& spec) {
  DWC_RETURN_IF_ERROR(CheckNames(query, spec));
  return SubstituteNames(MatchViews(query, spec), spec.inverses());
}

ExprRef PlanTranslation(const ExprRef& query, const WarehouseSpec& spec,
                        const SchemaResolver& resolver) {
  ExprRef translated =
      SubstituteNames(MatchViews(query, spec), spec.inverses());
  translated = Simplify(translated, &resolver);
  // Push selections toward the leaves so the evaluator can probe indexes
  // inside the (often large) inverse reconstructions.
  translated = PushDownSelections(translated, resolver);
  translated = Simplify(translated, &resolver);
  // Canonicalize through the spec's interner: repeated translations of the
  // same (or structurally overlapping) queries share nodes with each other
  // and with the maintenance machinery, which is what lets the warehouse's
  // subplan cache turn a repeated translated query against an unchanged
  // state into a pure cache hit.
  return spec.interner()->Intern(translated);
}

Result<ExprRef> TranslateQuery(const ExprRef& query,
                               const WarehouseSpec& spec) {
  DWC_RETURN_IF_ERROR(CheckNames(query, spec));
  return PlanTranslation(query, spec, spec.WarehouseResolver());
}

}  // namespace dwc
