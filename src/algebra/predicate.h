#ifndef DWC_ALGEBRA_PREDICATE_H_
#define DWC_ALGEBRA_PREDICATE_H_

#include <map>
#include <memory>
#include <string>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "util/result.h"

namespace dwc {

// Comparison operators of the selection language.
enum class CmpOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

const char* CmpOpSymbol(CmpOp op);

// `lhs op rhs` under the engine's total Value order.
bool Compare(const Value& lhs, CmpOp op, const Value& rhs);

// One side of a comparison: an attribute reference or a constant.
class Operand {
 public:
  static Operand Attr(std::string name) {
    Operand op;
    op.is_attr_ = true;
    op.attr_ = std::move(name);
    return op;
  }
  static Operand Const(Value value) {
    Operand op;
    op.is_attr_ = false;
    op.value_ = std::move(value);
    return op;
  }

  bool is_attr() const { return is_attr_; }
  const std::string& attr() const { return attr_; }
  const Value& value() const { return value_; }

  bool operator==(const Operand& other) const {
    return is_attr_ == other.is_attr_ && attr_ == other.attr_ &&
           value_ == other.value_;
  }

  std::string ToString() const { return is_attr_ ? attr_ : value_.ToString(); }

 private:
  Operand() = default;
  bool is_attr_ = false;
  std::string attr_;
  Value value_;
};

class Predicate;
using PredicateRef = std::shared_ptr<const Predicate>;

// An immutable boolean selection condition over one tuple: comparisons of
// attributes and constants combined with AND / OR / NOT. Shared via
// PredicateRef; all nodes are const after construction.
class Predicate {
 public:
  enum class Kind { kTrue, kCmp, kAnd, kOr, kNot };

  static PredicateRef True();
  static PredicateRef Cmp(Operand lhs, CmpOp op, Operand rhs);
  static PredicateRef And(PredicateRef left, PredicateRef right);
  static PredicateRef Or(PredicateRef left, PredicateRef right);
  static PredicateRef Not(PredicateRef child);

  // Convenience: attr = constant.
  static PredicateRef AttrEq(std::string attr, Value value) {
    return Cmp(Operand::Attr(std::move(attr)), CmpOp::kEq,
               Operand::Const(std::move(value)));
  }
  // Convenience: attr1 = attr2.
  static PredicateRef AttrsEq(std::string a, std::string b) {
    return Cmp(Operand::Attr(std::move(a)), CmpOp::kEq,
               Operand::Attr(std::move(b)));
  }

  Kind kind() const { return kind_; }
  const Operand& lhs() const { return lhs_; }
  const Operand& rhs() const { return rhs_; }
  CmpOp op() const { return op_; }
  const PredicateRef& left() const { return left_; }
  const PredicateRef& right() const { return right_; }

  // All attribute names referenced anywhere in the condition.
  AttrSet Attributes() const;

  // Evaluates against one tuple. Fails if a referenced attribute is missing
  // from `schema` (schema inference normally rules this out beforehand).
  Result<bool> Eval(const Schema& schema, const Tuple& tuple) const;

  // A structurally identical predicate with attributes renamed per `renames`
  // (names absent from the map are kept).
  PredicateRef RenameAttrs(
      const std::map<std::string, std::string>& renames) const;

  // Structural equality.
  bool Equals(const Predicate& other) const;

  std::string ToString() const;

 private:
  Predicate() = default;

  Kind kind_ = Kind::kTrue;
  CmpOp op_ = CmpOp::kEq;
  Operand lhs_ = Operand::Const(Value::Null());
  Operand rhs_ = Operand::Const(Value::Null());
  PredicateRef left_;
  PredicateRef right_;
};

}  // namespace dwc

#endif  // DWC_ALGEBRA_PREDICATE_H_
