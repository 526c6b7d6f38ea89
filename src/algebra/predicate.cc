#include "algebra/predicate.h"

#include "util/string_util.h"

namespace dwc {

const char* CmpOpSymbol(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool Compare(const Value& lhs, CmpOp op, const Value& rhs) {
  switch (op) {
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

PredicateRef Predicate::True() {
  auto node = std::shared_ptr<Predicate>(new Predicate());
  node->kind_ = Kind::kTrue;
  return node;
}

PredicateRef Predicate::Cmp(Operand lhs, CmpOp op, Operand rhs) {
  auto node = std::shared_ptr<Predicate>(new Predicate());
  node->kind_ = Kind::kCmp;
  node->lhs_ = std::move(lhs);
  node->op_ = op;
  node->rhs_ = std::move(rhs);
  return node;
}

PredicateRef Predicate::And(PredicateRef left, PredicateRef right) {
  auto node = std::shared_ptr<Predicate>(new Predicate());
  node->kind_ = Kind::kAnd;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

PredicateRef Predicate::Or(PredicateRef left, PredicateRef right) {
  auto node = std::shared_ptr<Predicate>(new Predicate());
  node->kind_ = Kind::kOr;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

PredicateRef Predicate::Not(PredicateRef child) {
  auto node = std::shared_ptr<Predicate>(new Predicate());
  node->kind_ = Kind::kNot;
  node->left_ = std::move(child);
  return node;
}

AttrSet Predicate::Attributes() const {
  AttrSet attrs;
  switch (kind_) {
    case Kind::kTrue:
      break;
    case Kind::kCmp:
      if (lhs_.is_attr()) {
        attrs.insert(lhs_.attr());
      }
      if (rhs_.is_attr()) {
        attrs.insert(rhs_.attr());
      }
      break;
    case Kind::kAnd:
    case Kind::kOr: {
      AttrSet left_attrs = left_->Attributes();
      AttrSet right_attrs = right_->Attributes();
      attrs.insert(left_attrs.begin(), left_attrs.end());
      attrs.insert(right_attrs.begin(), right_attrs.end());
      break;
    }
    case Kind::kNot:
      attrs = left_->Attributes();
      break;
  }
  return attrs;
}

namespace {

Result<Value> Resolve(const Operand& operand, const Schema& schema,
                      const Tuple& tuple) {
  if (!operand.is_attr()) {
    return operand.value();
  }
  std::optional<size_t> idx = schema.IndexOf(operand.attr());
  if (!idx.has_value()) {
    return Status::NotFound(StrCat("predicate attribute '", operand.attr(),
                                   "' not in schema ", schema.ToString()));
  }
  return tuple.at(*idx);
}

}  // namespace

Result<bool> Predicate::Eval(const Schema& schema, const Tuple& tuple) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCmp: {
      DWC_ASSIGN_OR_RETURN(Value lhs, Resolve(lhs_, schema, tuple));
      DWC_ASSIGN_OR_RETURN(Value rhs, Resolve(rhs_, schema, tuple));
      return Compare(lhs, op_, rhs);
    }
    case Kind::kAnd: {
      DWC_ASSIGN_OR_RETURN(bool left, left_->Eval(schema, tuple));
      if (!left) {
        return false;
      }
      return right_->Eval(schema, tuple);
    }
    case Kind::kOr: {
      DWC_ASSIGN_OR_RETURN(bool left, left_->Eval(schema, tuple));
      if (left) {
        return true;
      }
      return right_->Eval(schema, tuple);
    }
    case Kind::kNot: {
      DWC_ASSIGN_OR_RETURN(bool child, left_->Eval(schema, tuple));
      return !child;
    }
  }
  return Status::Internal("unknown predicate kind");
}

PredicateRef Predicate::RenameAttrs(
    const std::map<std::string, std::string>& renames) const {
  auto rename_operand = [&renames](const Operand& op) {
    if (!op.is_attr()) {
      return op;
    }
    auto it = renames.find(op.attr());
    return it == renames.end() ? op : Operand::Attr(it->second);
  };
  switch (kind_) {
    case Kind::kTrue:
      return True();
    case Kind::kCmp:
      return Cmp(rename_operand(lhs_), op_, rename_operand(rhs_));
    case Kind::kAnd:
      return And(left_->RenameAttrs(renames), right_->RenameAttrs(renames));
    case Kind::kOr:
      return Or(left_->RenameAttrs(renames), right_->RenameAttrs(renames));
    case Kind::kNot:
      return Not(left_->RenameAttrs(renames));
  }
  return True();
}

bool Predicate::Equals(const Predicate& other) const {
  if (kind_ != other.kind_) {
    return false;
  }
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCmp:
      return op_ == other.op_ && lhs_ == other.lhs_ && rhs_ == other.rhs_;
    case Kind::kAnd:
    case Kind::kOr:
      return left_->Equals(*other.left_) && right_->Equals(*other.right_);
    case Kind::kNot:
      return left_->Equals(*other.left_);
  }
  return false;
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kCmp:
      return StrCat(lhs_.ToString(), " ", CmpOpSymbol(op_), " ",
                    rhs_.ToString());
    case Kind::kAnd:
      return StrCat("(", left_->ToString(), " and ", right_->ToString(), ")");
    case Kind::kOr:
      return StrCat("(", left_->ToString(), " or ", right_->ToString(), ")");
    case Kind::kNot:
      return StrCat("not (", left_->ToString(), ")");
  }
  return "?";
}

}  // namespace dwc
