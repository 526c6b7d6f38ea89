#include "algebra/implication.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace dwc {

namespace {

// Keeps the DNF expansion from exploding on adversarial inputs; predicates
// that would need more disjuncts are simply not decided.
constexpr size_t kMaxDisjuncts = 128;

CmpOp Negate(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kNe;
    case CmpOp::kNe:
      return CmpOp::kEq;
    case CmpOp::kLt:
      return CmpOp::kGe;
    case CmpOp::kLe:
      return CmpOp::kGt;
    case CmpOp::kGt:
      return CmpOp::kLe;
    case CmpOp::kGe:
      return CmpOp::kLt;
  }
  return op;
}

// "const op attr" / "b op a" mirrored into "attr op' const" / "a op' b".
CmpOp Mirror(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;  // = and != are symmetric.
  }
}

// A normalized literal of one DNF conjunct.
struct Lit {
  enum class Kind {
    kTrue,      // Constant true: droppable.
    kFalse,     // Constant false: the conjunct is unsatisfiable.
    kCmp,       // attr <op> constant.
    kAttrPair,  // attr <op> rhs_attr (distinct attributes, attr < rhs_attr).
  };
  Kind kind = Kind::kTrue;
  std::string attr;
  CmpOp op = CmpOp::kEq;
  Value constant;
  std::string rhs_attr;
};

Lit ConstLit(bool truth) {
  Lit lit;
  lit.kind = truth ? Lit::Kind::kTrue : Lit::Kind::kFalse;
  return lit;
}

// Normalizes one comparison node (under an optional NOT) into a literal.
Lit MakeLit(const Predicate& cmp, bool negated) {
  CmpOp op = negated ? Negate(cmp.op()) : cmp.op();
  const Operand& lhs = cmp.lhs();
  const Operand& rhs = cmp.rhs();
  if (!lhs.is_attr() && !rhs.is_attr()) {
    return ConstLit(Compare(lhs.value(), op, rhs.value()));
  }
  Lit lit;
  if (lhs.is_attr() && rhs.is_attr()) {
    if (lhs.attr() == rhs.attr()) {
      // Reflexive comparison: x op x.
      return ConstLit(op == CmpOp::kEq || op == CmpOp::kLe ||
                      op == CmpOp::kGe);
    }
    lit.kind = Lit::Kind::kAttrPair;
    lit.attr = lhs.attr();
    lit.op = op;
    lit.rhs_attr = rhs.attr();
    if (lit.rhs_attr < lit.attr) {
      std::swap(lit.attr, lit.rhs_attr);
      lit.op = Mirror(lit.op);
    }
    return lit;
  }
  lit.kind = Lit::Kind::kCmp;
  if (lhs.is_attr()) {
    lit.attr = lhs.attr();
    lit.op = op;
    lit.constant = rhs.value();
  } else {
    lit.attr = rhs.attr();
    lit.op = Mirror(op);
    lit.constant = lhs.value();
  }
  return lit;
}

using Conj = std::vector<Lit>;

// Expands `p` (negated when `negated`) into a disjunction of literal
// conjunctions. Returns false when the expansion would exceed the budget.
bool ToDnf(const PredicateRef& p, bool negated, std::vector<Conj>* out) {
  switch (p->kind()) {
    case Predicate::Kind::kTrue:
      if (!negated) {
        out->push_back(Conj{});
      }
      // NOT true: the empty disjunction, i.e. false.
      return true;
    case Predicate::Kind::kCmp:
      out->push_back(Conj{MakeLit(*p, negated)});
      return true;
    case Predicate::Kind::kNot:
      return ToDnf(p->left(), !negated, out);
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      bool conjunctive = (p->kind() == Predicate::Kind::kAnd) != negated;
      std::vector<Conj> left;
      std::vector<Conj> right;
      if (!ToDnf(p->left(), negated, &left) ||
          !ToDnf(p->right(), negated, &right)) {
        return false;
      }
      if (!conjunctive) {
        if (left.size() + right.size() > kMaxDisjuncts) {
          return false;
        }
        *out = std::move(left);
        out->insert(out->end(), std::make_move_iterator(right.begin()),
                    std::make_move_iterator(right.end()));
        return true;
      }
      if (left.size() * right.size() > kMaxDisjuncts) {
        return false;
      }
      for (const Conj& a : left) {
        for (const Conj& b : right) {
          Conj merged = a;
          merged.insert(merged.end(), b.begin(), b.end());
          out->push_back(std::move(merged));
        }
      }
      return true;
    }
  }
  return false;
}

// True when {x : x a_op v} ∩ {x : x b_op w} is provably empty under the
// engine's total Value order (no density assumption is needed: every case
// below derives x < x or x != x directly).
bool PairUnsatCmp(CmpOp a_op, const Value& v, CmpOp b_op, const Value& w) {
  // Normalize so the equality (if any) comes first.
  if (b_op == CmpOp::kEq && a_op != CmpOp::kEq) {
    return PairUnsatCmp(b_op, w, a_op, v);
  }
  switch (a_op) {
    case CmpOp::kEq:
      // x = v contradicts x b_op w iff v fails the other constraint.
      return !Compare(v, b_op, w);
    case CmpOp::kNe:
      return false;  // Only contradicted by an equality, handled above.
    case CmpOp::kLt:
      // x < v vs lower bounds.
      if (b_op == CmpOp::kGt || b_op == CmpOp::kGe) {
        return v <= w;
      }
      return false;
    case CmpOp::kLe:
      if (b_op == CmpOp::kGt) {
        return v <= w;
      }
      if (b_op == CmpOp::kGe) {
        return v < w;
      }
      return false;
    case CmpOp::kGt:
      if (b_op == CmpOp::kLt || b_op == CmpOp::kLe) {
        return w <= v;
      }
      return false;
    case CmpOp::kGe:
      if (b_op == CmpOp::kLt) {
        return w <= v;
      }
      if (b_op == CmpOp::kLe) {
        return w < v;
      }
      return false;
  }
  return false;
}

// True when (x a y) AND (x b y) is unsatisfiable for any x, y.
bool ContradictoryOps(CmpOp a, CmpOp b) {
  auto unordered = [&](CmpOp p, CmpOp q) {
    return (a == p && b == q) || (a == q && b == p);
  };
  return unordered(CmpOp::kEq, CmpOp::kNe) ||
         unordered(CmpOp::kEq, CmpOp::kLt) ||
         unordered(CmpOp::kEq, CmpOp::kGt) ||
         unordered(CmpOp::kLt, CmpOp::kGt) ||
         unordered(CmpOp::kLt, CmpOp::kGe) ||
         unordered(CmpOp::kGt, CmpOp::kLe);
}

bool ConjUnsat(const Conj& conj) {
  for (size_t i = 0; i < conj.size(); ++i) {
    const Lit& a = conj[i];
    if (a.kind == Lit::Kind::kFalse) {
      return true;
    }
    for (size_t j = i + 1; j < conj.size(); ++j) {
      const Lit& b = conj[j];
      if (a.kind == Lit::Kind::kCmp && b.kind == Lit::Kind::kCmp &&
          a.attr == b.attr &&
          PairUnsatCmp(a.op, a.constant, b.op, b.constant)) {
        return true;
      }
      if (a.kind == Lit::Kind::kAttrPair && b.kind == Lit::Kind::kAttrPair &&
          a.attr == b.attr && a.rhs_attr == b.rhs_attr &&
          ContradictoryOps(a.op, b.op)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

bool ProvablyUnsatisfiable(const PredicateRef& p) {
  std::vector<Conj> dnf;
  if (!ToDnf(p, /*negated=*/false, &dnf)) {
    return false;
  }
  return std::all_of(dnf.begin(), dnf.end(), ConjUnsat);
}

bool Implies(const PredicateRef& p, const PredicateRef& q) {
  return ProvablyUnsatisfiable(Predicate::And(p, Predicate::Not(q)));
}

}  // namespace dwc
