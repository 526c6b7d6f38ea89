#include "algebra/expr.h"

#include <cassert>

#include "util/string_util.h"

namespace dwc {

ExprRef Expr::Base(std::string name) {
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kBase;
  node->base_name_ = std::move(name);
  return node;
}

ExprRef Expr::Empty(Schema schema) {
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kEmpty;
  node->empty_schema_ = std::move(schema);
  return node;
}

ExprRef Expr::Select(PredicateRef predicate, ExprRef child) {
  assert(predicate != nullptr && child != nullptr);
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kSelect;
  node->predicate_ = std::move(predicate);
  node->left_ = std::move(child);
  return node;
}

ExprRef Expr::Project(std::vector<std::string> attrs, ExprRef child) {
  assert(child != nullptr);
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kProject;
  node->attrs_ = std::move(attrs);
  node->left_ = std::move(child);
  return node;
}

ExprRef Expr::Join(ExprRef left, ExprRef right) {
  assert(left != nullptr && right != nullptr);
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kJoin;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExprRef Expr::Union(ExprRef left, ExprRef right) {
  assert(left != nullptr && right != nullptr);
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kUnion;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExprRef Expr::Difference(ExprRef left, ExprRef right) {
  assert(left != nullptr && right != nullptr);
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kDifference;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExprRef Expr::Rename(std::map<std::string, std::string> renames,
                     ExprRef child) {
  assert(child != nullptr);
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kRename;
  node->renames_ = std::move(renames);
  node->left_ = std::move(child);
  return node;
}

ExprRef Expr::JoinAll(const std::vector<ExprRef>& exprs) {
  assert(!exprs.empty());
  ExprRef result = exprs[0];
  for (size_t i = 1; i < exprs.size(); ++i) {
    result = Join(result, exprs[i]);
  }
  return result;
}

ExprRef Expr::UnionAll(const std::vector<ExprRef>& exprs) {
  assert(!exprs.empty());
  ExprRef result = exprs[0];
  for (size_t i = 1; i < exprs.size(); ++i) {
    result = Union(result, exprs[i]);
  }
  return result;
}

void Expr::CollectNames(std::set<std::string>* names) const {
  switch (kind_) {
    case Kind::kBase:
      names->insert(base_name_);
      break;
    case Kind::kEmpty:
      break;
    case Kind::kSelect:
    case Kind::kProject:
    case Kind::kRename:
      left_->CollectNames(names);
      break;
    case Kind::kJoin:
    case Kind::kUnion:
    case Kind::kDifference:
      left_->CollectNames(names);
      right_->CollectNames(names);
      break;
  }
}

std::set<std::string> Expr::ReferencedNames() const {
  std::set<std::string> names;
  CollectNames(&names);
  return names;
}

bool Expr::Equals(const Expr& other) const {
  if (this == &other) {
    return true;
  }
  if (kind_ != other.kind_) {
    return false;
  }
  switch (kind_) {
    case Kind::kBase:
      return base_name_ == other.base_name_;
    case Kind::kEmpty:
      return empty_schema_ == other.empty_schema_;
    case Kind::kSelect:
      return predicate_->Equals(*other.predicate_) &&
             left_->Equals(*other.left_);
    case Kind::kProject:
      return attrs_ == other.attrs_ && left_->Equals(*other.left_);
    case Kind::kRename:
      return renames_ == other.renames_ && left_->Equals(*other.left_);
    case Kind::kJoin:
    case Kind::kUnion:
    case Kind::kDifference:
      return left_->Equals(*other.left_) && right_->Equals(*other.right_);
  }
  return false;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kBase:
      return base_name_;
    case Kind::kEmpty: {
      std::vector<std::string> names;
      for (const Attribute& attr : empty_schema_.attributes()) {
        names.push_back(attr.name);
      }
      return StrCat("empty[", ::dwc::Join(names, ", "), "]");
    }
    case Kind::kSelect:
      return StrCat("select[", predicate_->ToString(), "](",
                    left_->ToString(), ")");
    case Kind::kProject:
      return StrCat("project[", ::dwc::Join(attrs_, ", "), "](", left_->ToString(),
                    ")");
    case Kind::kRename: {
      std::vector<std::string> parts;
      for (const auto& [from, to] : renames_) {
        parts.push_back(StrCat(from, "->", to));
      }
      return StrCat("rename[", ::dwc::Join(parts, ", "), "](", left_->ToString(),
                    ")");
    }
    case Kind::kJoin:
      return StrCat("(", left_->ToString(), " join ", right_->ToString(), ")");
    case Kind::kUnion:
      return StrCat("(", left_->ToString(), " union ", right_->ToString(),
                    ")");
    case Kind::kDifference:
      return StrCat("(", left_->ToString(), " minus ", right_->ToString(),
                    ")");
  }
  return "?";
}

}  // namespace dwc
