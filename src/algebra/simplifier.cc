#include "algebra/simplifier.h"

namespace dwc {

namespace {

bool IsEmptyNode(const ExprRef& expr) {
  return expr->kind() == Expr::Kind::kEmpty;
}

// Schema of `expr` via the resolver; nullopt if unavailable.
std::optional<Schema> TrySchema(const ExprRef& expr,
                                const SchemaResolver* resolver) {
  if (resolver == nullptr) {
    return std::nullopt;
  }
  Result<Schema> schema = InferSchema(*expr, *resolver);
  if (!schema.ok()) {
    return std::nullopt;
  }
  return std::move(schema).value();
}

// `chain` with every arm of its union chain that is Equals to an arm in
// `seen`, or to an earlier arm of its own, dropped; kept arms are appended to
// `seen`. Null when every arm drops. The chain keeps its shape otherwise.
ExprRef DropSeenArms(const ExprRef& chain, std::vector<ExprRef>* seen) {
  if (chain->kind() != Expr::Kind::kUnion) {
    for (const ExprRef& arm : *seen) {
      if (arm->Equals(*chain)) {
        return nullptr;
      }
    }
    seen->push_back(chain);
    return chain;
  }
  ExprRef left = DropSeenArms(chain->left(), seen);
  ExprRef right = DropSeenArms(chain->right(), seen);
  if (left == nullptr || right == nullptr) {
    return left == nullptr ? right : left;
  }
  if (left == chain->left() && right == chain->right()) {
    return chain;
  }
  return Expr::Union(left, right);
}

// left ∪ right for already simplified operands. `expr` is the original
// node, returned unchanged when no rule fires; null when there is none.
// Under set semantics ∪ is idempotent, associative and commutative, so an
// arm anywhere in the chain that repeats an earlier one drops.
ExprRef SimplifyUnion(const ExprRef& expr, const ExprRef& left,
                      const ExprRef& right) {
  if (IsEmptyNode(left)) {
    return right;
  }
  if (IsEmptyNode(right)) {
    return left;
  }
  std::vector<ExprRef> seen;
  ExprRef kept_left = DropSeenArms(left, &seen);
  ExprRef kept_right = DropSeenArms(right, &seen);
  if (kept_right == nullptr) {
    return kept_left;
  }
  if (expr != nullptr && kept_left == expr->left() &&
      kept_right == expr->right()) {
    return expr;
  }
  return Expr::Union(kept_left, kept_right);
}

// left − right for already simplified, non-empty operands; `expr` is the
// original node. Under set semantics x ∈ A implies x ∈ A ∪ C, so
// (A ∪ B) − (A ∪ C) = B − (A ∪ C): every arm of the left chain that Equals
// an arm of the right chain drops, and the difference is empty when all do.
// Fires only when the difference's schema resolves and the kept chain lists
// its columns in the left's order (dropping the leftmost arm can change it).
ExprRef SimplifyDifference(const ExprRef& expr, const ExprRef& left,
                           const ExprRef& right,
                           const SchemaResolver* resolver) {
  auto unchanged = [&] {
    return left == expr->left() && right == expr->right()
               ? expr
               : Expr::Difference(left, right);
  };
  std::vector<ExprRef> seen;
  DropSeenArms(right, &seen);  // Seeds `seen` with the right chain's arms.
  ExprRef kept = DropSeenArms(left, &seen);
  if (kept == left) {
    return unchanged();
  }
  std::optional<Schema> schema =
      TrySchema(Expr::Difference(left, right), resolver);
  if (!schema.has_value()) {
    return unchanged();
  }
  if (kept == nullptr) {
    return Expr::Empty(std::move(*schema));
  }
  std::optional<Schema> kept_schema = TrySchema(kept, resolver);
  if (!kept_schema.has_value() || *kept_schema != *schema) {
    return unchanged();
  }
  return Expr::Difference(kept, right);
}

// π[attrs](child) for an already simplified `child`; `expr` as above.
ExprRef SimplifyProject(const ExprRef& expr,
                        const std::vector<std::string>& attrs,
                        const ExprRef& child, const SchemaResolver* resolver) {
  auto unchanged = [&] {
    return expr != nullptr && child == expr->child()
               ? expr
               : Expr::Project(attrs, child);
  };
  if (IsEmptyNode(child)) {
    // Empty projects to an empty relation over the projected attributes.
    std::vector<Attribute> kept;
    for (const std::string& name : attrs) {
      std::optional<size_t> idx = child->empty_schema().IndexOf(name);
      if (!idx.has_value()) {
        return unchanged();  // Ill-typed; leave for the evaluator to report.
      }
      kept.push_back(child->empty_schema().attribute(*idx));
    }
    Result<Schema> schema = Schema::Create(std::move(kept));
    if (!schema.ok()) {
      return unchanged();
    }
    return Expr::Empty(std::move(schema).value());
  }
  if (child->kind() == Expr::Kind::kProject) {
    return SimplifyProject(nullptr, attrs, child->child(), resolver);
  }
  std::optional<Schema> child_schema = TrySchema(child, resolver);
  // Identity projection: same attribute list, same order as the child.
  if (child_schema.has_value() && child_schema->size() == attrs.size()) {
    bool identity = true;
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (child_schema->attribute(i).name != attrs[i]) {
        identity = false;
        break;
      }
    }
    if (identity) {
      return child;
    }
  }
  // π_A(e1 ∪ e2) → π_A(e1) ∪ π_A(e2): each operand then keeps only its
  // distinct A-rows instead of the union materializing every row first.
  // Both sides come out in A's column order. Only over a union whose schema
  // resolves, so an ill-typed union is left for the evaluator to report.
  // (Never over a difference: π does not distribute over −.)
  if (child->kind() == Expr::Kind::kUnion && child_schema.has_value()) {
    return SimplifyUnion(
        nullptr, SimplifyProject(nullptr, attrs, child->left(), resolver),
        SimplifyProject(nullptr, attrs, child->right(), resolver));
  }
  return unchanged();
}

}  // namespace

ExprRef Simplify(const ExprRef& expr, const SchemaResolver* resolver) {
  switch (expr->kind()) {
    case Expr::Kind::kBase:
    case Expr::Kind::kEmpty:
      return expr;
    case Expr::Kind::kSelect: {
      ExprRef child = Simplify(expr->child(), resolver);
      if (IsEmptyNode(child)) {
        return child;
      }
      if (expr->predicate()->kind() == Predicate::Kind::kTrue) {
        return child;
      }
      if (child->kind() == Expr::Kind::kSelect) {
        return Expr::Select(
            Predicate::And(expr->predicate(), child->predicate()),
            child->child());
      }
      return child == expr->child() ? expr
                                    : Expr::Select(expr->predicate(), child);
    }
    case Expr::Kind::kProject:
      return SimplifyProject(expr, expr->attrs(),
                             Simplify(expr->child(), resolver), resolver);
    case Expr::Kind::kRename: {
      ExprRef child = Simplify(expr->child(), resolver);
      bool trivial = true;
      for (const auto& [from, to] : expr->renames()) {
        if (from != to) {
          trivial = false;
          break;
        }
      }
      if (trivial) {
        return child;
      }
      return child == expr->child() ? expr
                                    : Expr::Rename(expr->renames(), child);
    }
    case Expr::Kind::kJoin: {
      ExprRef left = Simplify(expr->left(), resolver);
      ExprRef right = Simplify(expr->right(), resolver);
      if (IsEmptyNode(left) || IsEmptyNode(right)) {
        ExprRef joined = Expr::Join(left, right);
        std::optional<Schema> schema = TrySchema(joined, resolver);
        if (schema.has_value()) {
          return Expr::Empty(std::move(*schema));
        }
        return joined;
      }
      if (left == expr->left() && right == expr->right()) {
        return expr;
      }
      return Expr::Join(left, right);
    }
    case Expr::Kind::kUnion:
      return SimplifyUnion(expr, Simplify(expr->left(), resolver),
                           Simplify(expr->right(), resolver));
    case Expr::Kind::kDifference: {
      ExprRef left = Simplify(expr->left(), resolver);
      ExprRef right = Simplify(expr->right(), resolver);
      if (IsEmptyNode(left)) {
        return left;
      }
      if (IsEmptyNode(right)) {
        return left;
      }
      return SimplifyDifference(expr, left, right, resolver);
    }
  }
  return expr;
}

}  // namespace dwc
