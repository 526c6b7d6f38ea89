#include "algebra/interner.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dwc {

namespace {

// Length-prefixes `part` onto `key` so parts can never bleed into each
// other, whatever characters they contain.
void AppendPart(std::string* key, const std::string& part) {
  key->append(std::to_string(part.size()));
  key->push_back(':');
  key->append(part);
}

void AppendOperand(std::string* key, const Operand& operand) {
  if (operand.is_attr()) {
    AppendPart(key, "a");
    AppendPart(key, operand.attr());
  } else {
    // Tag the type: Value::ToString quotes strings, but int 1 and double 1
    // could otherwise render identically.
    AppendPart(key, "c");
    AppendPart(key, ValueTypeName(operand.value().type()));
    AppendPart(key, operand.value().ToString());
  }
}

// Unambiguous structural key for a predicate (ToString is for humans; this
// must be injective up to Predicate::Equals).
void AppendPredicate(std::string* key, const Predicate& predicate) {
  switch (predicate.kind()) {
    case Predicate::Kind::kTrue:
      key->push_back('T');
      return;
    case Predicate::Kind::kCmp:
      key->push_back('C');
      AppendPart(key, CmpOpSymbol(predicate.op()));
      AppendOperand(key, predicate.lhs());
      AppendOperand(key, predicate.rhs());
      return;
    case Predicate::Kind::kAnd:
      key->push_back('&');
      AppendPredicate(key, *predicate.left());
      AppendPredicate(key, *predicate.right());
      return;
    case Predicate::Kind::kOr:
      key->push_back('|');
      AppendPredicate(key, *predicate.left());
      AppendPredicate(key, *predicate.right());
      return;
    case Predicate::Kind::kNot:
      key->push_back('!');
      AppendPredicate(key, *predicate.left());
      return;
  }
}

char KindTag(Expr::Kind kind) {
  switch (kind) {
    case Expr::Kind::kBase:
      return 'B';
    case Expr::Kind::kEmpty:
      return 'E';
    case Expr::Kind::kSelect:
      return 'S';
    case Expr::Kind::kProject:
      return 'P';
    case Expr::Kind::kJoin:
      return 'J';
    case Expr::Kind::kUnion:
      return 'U';
    case Expr::Kind::kDifference:
      return 'D';
    case Expr::Kind::kRename:
      return 'R';
  }
  return '?';
}

// The node-local payload (everything except children), length-prefixed.
std::string PayloadKey(const Expr& expr) {
  std::string key;
  switch (expr.kind()) {
    case Expr::Kind::kBase:
      AppendPart(&key, expr.base_name());
      break;
    case Expr::Kind::kEmpty:
      // Schema::ToString is injective for (names, types) lists.
      AppendPart(&key, expr.empty_schema().ToString());
      break;
    case Expr::Kind::kSelect:
      AppendPredicate(&key, *expr.predicate());
      break;
    case Expr::Kind::kProject:
      for (const std::string& attr : expr.attrs()) {
        AppendPart(&key, attr);
      }
      break;
    case Expr::Kind::kRename:
      for (const auto& [from, to] : expr.renames()) {
        AppendPart(&key, from);
        AppendPart(&key, to);
      }
      break;
    case Expr::Kind::kJoin:
    case Expr::Kind::kUnion:
    case Expr::Kind::kDifference:
      break;
  }
  return key;
}

std::vector<std::string> MergeInputs(const std::vector<std::string>& a,
                                     const std::vector<std::string>& b) {
  std::vector<std::string> merged;
  merged.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(merged));
  return merged;
}

}  // namespace

ExprRef ExprInterner::Intern(const ExprRef& expr) {
  assert(expr != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  return InternLocked(expr);
}

const ExprInterner::NodeInfo* ExprInterner::FindLocked(
    const Expr* expr) const {
  auto it = info_.find(expr);
  if (it == info_.end() || it->second.node.expired()) {
    return nullptr;
  }
  return &it->second;
}

void ExprInterner::EraseLocked(InfoMap::iterator it) {
  CidMap::value_type* cid_class = it->second.cid_class;
  if (--cid_class->second.nodes == 0) {
    cid_by_key_.erase(cid_class->first);
  }
  info_.erase(it);
}

void ExprInterner::SweepLocked() {
  for (auto it = info_.begin(); it != info_.end();) {
    auto next = std::next(it);
    if (it->second.node.expired()) {
      EraseLocked(it);
    }
    it = next;
  }
  std::erase_if(by_key_,
                [](const auto& entry) { return entry.second.expired(); });
}

ExprRef ExprInterner::InternLocked(const ExprRef& expr) {
  // Already canonical? (Fast path when re-interning shared subtrees.)
  auto self = info_.find(expr.get());
  if (self != info_.end()) {
    if (!self->second.node.expired()) {
      return expr;
    }
    EraseLocked(self);  // A dead node's address, reused by `expr`.
  }

  ExprRef left;
  ExprRef right;
  if (expr->left() != nullptr) {
    left = InternLocked(expr->left());
  }
  if (expr->right() != nullptr) {
    right = InternLocked(expr->right());
  }
  // Children are live and canonical at this point.
  const NodeInfo* left_info =
      left != nullptr ? FindLocked(left.get()) : nullptr;
  const NodeInfo* right_info =
      right != nullptr ? FindLocked(right.get()) : nullptr;

  // Structural key: kind + payload + child structural ids, which fully
  // identify the canonical children.
  std::string key;
  key.push_back(KindTag(expr->kind()));
  key += PayloadKey(*expr);
  if (left_info != nullptr) {
    AppendPart(&key, std::to_string(left_info->id));
  }
  if (right_info != nullptr) {
    AppendPart(&key, std::to_string(right_info->id));
  }

  auto existing = by_key_.find(key);
  if (existing != by_key_.end()) {
    if (ExprRef live = existing->second.lock()) {
      return live;
    }
  }

  // New class: reuse the original node when its children were already
  // canonical, otherwise rebuild it over the canonical children. The
  // evaluation-facing tree is untouched either way — interning never
  // reorders operands, so column-order semantics are exactly preserved.
  ExprRef node = expr;
  if (left != expr->left() || right != expr->right()) {
    switch (expr->kind()) {
      case Expr::Kind::kSelect:
        node = Expr::Select(expr->predicate(), left);
        break;
      case Expr::Kind::kProject:
        node = Expr::Project(expr->attrs(), left);
        break;
      case Expr::Kind::kRename:
        node = Expr::Rename(expr->renames(), left);
        break;
      case Expr::Kind::kJoin:
        node = Expr::Join(left, right);
        break;
      case Expr::Kind::kUnion:
        node = Expr::Union(left, right);
        break;
      case Expr::Kind::kDifference:
        node = Expr::Difference(left, right);
        break;
      case Expr::Kind::kBase:
      case Expr::Kind::kEmpty:
        break;  // Leaves have no children; unreachable here.
    }
    auto dead = info_.find(node.get());
    if (dead != info_.end()) {
      EraseLocked(dead);  // The new node reuses a dead node's address.
    }
  }

  NodeInfo info;
  info.node = node;
  info.id = next_id_++;

  // Commutative class: joins and unions identify A∘B with B∘A by sorting
  // the operand *cids*; every other operator keys on ordered child cids.
  std::string cid_key;
  cid_key.push_back(KindTag(expr->kind()));
  cid_key += PayloadKey(*expr);
  if (expr->kind() == Expr::Kind::kJoin || expr->kind() == Expr::Kind::kUnion) {
    uint64_t lc = left_info->cid_class->second.cid;
    uint64_t rc = right_info->cid_class->second.cid;
    if (lc > rc) {
      std::swap(lc, rc);
    }
    AppendPart(&cid_key, std::to_string(lc));
    AppendPart(&cid_key, std::to_string(rc));
  } else {
    if (left_info != nullptr) {
      AppendPart(&cid_key, std::to_string(left_info->cid_class->second.cid));
    }
    if (right_info != nullptr) {
      AppendPart(&cid_key, std::to_string(right_info->cid_class->second.cid));
    }
  }
  auto [cid_class, fresh] = cid_by_key_.try_emplace(std::move(cid_key));
  if (fresh) {
    cid_class->second.cid = next_cid_++;
  }
  ++cid_class->second.nodes;
  info.cid_class = &*cid_class;

  if (expr->kind() == Expr::Kind::kBase) {
    info.inputs = {expr->base_name()};
  } else if (left_info != nullptr && right_info != nullptr) {
    info.inputs = MergeInputs(left_info->inputs, right_info->inputs);
  } else if (left_info != nullptr) {
    info.inputs = left_info->inputs;
  }

  // Once the maps have doubled since the last sweep, drop the dead entries,
  // so they cost amortized O(1) per interned node. The child entries read
  // above stay (they are live), and the new node is not in the maps yet.
  if (info_.size() >= sweep_at_) {
    SweepLocked();
    sweep_at_ = std::max(kMinSweep, 2 * info_.size());
  }
  info_.emplace(node.get(), std::move(info));
  by_key_.insert_or_assign(std::move(key), node);
  return node;
}

std::optional<ExprInterner::Interned> ExprInterner::Find(
    const Expr* expr) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = info_.find(expr);
  if (it == info_.end()) {
    return std::nullopt;
  }
  ExprRef node = it->second.node.lock();
  if (node == nullptr) {
    return std::nullopt;
  }
  return Interned{std::move(node), it->second.id,
                  it->second.cid_class->second.cid, &it->second.inputs};
}

uint64_t ExprInterner::IdOf(const Expr* expr) const {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeInfo* info = FindLocked(expr);
  return info == nullptr ? 0 : info->id;
}

uint64_t ExprInterner::CidOf(const Expr* expr) const {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeInfo* info = FindLocked(expr);
  return info == nullptr ? 0 : info->cid_class->second.cid;
}

size_t ExprInterner::size() {
  std::lock_guard<std::mutex> lock(mu_);
  SweepLocked();
  return info_.size();
}

}  // namespace dwc
