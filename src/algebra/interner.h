#ifndef DWC_ALGEBRA_INTERNER_H_
#define DWC_ALGEBRA_INTERNER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/expr.h"

namespace dwc {

// Hash-conses Expr trees into a canonical DAG of shared immutable nodes.
//
// The paper's pipeline reuses the same algebraic structure everywhere: each
// reconstruction R̂i = ∪ π_Ri(Vj) appears inside every complement
// Ci = Ri \ R̂i, and the inverse expressions W⁻¹ are substituted verbatim
// into every translated query (Theorem 3.1) and maintenance expression
// (Theorem 4.1). Interning all of those trees turns the textual repetition
// into literal node sharing: structurally equal subtrees become one node
// with one structural id, which is what lets the evaluator memoize a
// subplan once and recycle it across complements, maintenance plans, and
// translated queries.
//
// Two ids per interned node:
//  * id  — structural identity: equal trees (same operator, payload, and
//    child ids, in order) get equal ids.
//  * cid — commutative-equivalence class: joins and unions additionally
//    identify A op B with B op A (operand cids sorted). Natural join and
//    set union are commutative up to column order, which the evaluator's
//    cache repairs by realignment; cids are exact equivalence classes
//    (canonical keys mapped through a table), never bare hashes, so a
//    collision can not silently merge different plans.
//
// Keys are built length-prefixed, so no payload string can collide with a
// delimiter. All methods are thread-safe (one internal mutex).
//
// Lifetime: the interner does not own its nodes. A node stays interned
// while something else holds it — a spec's views and inverses, a
// maintenance plan, a subplan-cache entry (which holds its producer), or a
// caller's translated plan — and its entry is dropped some time after the
// last holder lets go, so a stream of one-off translated queries does not
// grow the interner. Every lookup checks that the node at the address is
// still alive, so a dead node's reused address is never taken for it. Ids
// are never reused: a structurally equal tree interned after its
// predecessor died gets a fresh one. A cid names one commutative class for
// the interner's whole life; a class whose nodes have all died and been
// dropped gets a fresh cid if it comes back. (A subplan-cache entry holds
// its producer, so no entry is ever keyed by a dropped cid.)
class ExprInterner {
 public:
  ExprInterner() = default;
  ExprInterner(const ExprInterner&) = delete;
  ExprInterner& operator=(const ExprInterner&) = delete;

  // Returns the canonical node for `expr`, interning every subtree
  // bottom-up. Child pointers of the result are themselves canonical, so
  // structurally equal subtrees are pointer-equal afterwards.
  ExprRef Intern(const ExprRef& expr);

  // A live interned node with its ids and inputs.
  struct Interned {
    ExprRef node;
    uint64_t id = 0;
    uint64_t cid = 0;
    // Sorted names of the base relations the node transitively reads.
    // Stays valid while `node` is alive.
    const std::vector<std::string>* inputs = nullptr;
  };
  // The entry for `expr`, or nullopt if `expr` is not a live node produced
  // by Intern() on this interner.
  std::optional<Interned> Find(const Expr* expr) const;

  // Structural id of an interned node, or 0 if `expr` was not produced by
  // Intern() on this interner.
  uint64_t IdOf(const Expr* expr) const;
  // Commutative-class id, or 0 if unknown.
  uint64_t CidOf(const Expr* expr) const;

  // Number of live interned nodes (the DAG size; equal subtrees count
  // once), after dropping the entries of dead ones. Exposed for the CSE
  // tests and the lint duplicate-view pass.
  size_t size();

 private:
  // A commutative key's class, with the number of live nodes in it.
  struct CidClass {
    uint64_t cid = 0;
    size_t nodes = 0;
  };
  using CidMap = std::unordered_map<std::string, CidClass>;

  struct NodeInfo {
    std::weak_ptr<const Expr> node;
    uint64_t id = 0;
    CidMap::value_type* cid_class = nullptr;
    std::vector<std::string> inputs;
  };
  using InfoMap = std::unordered_map<const Expr*, NodeInfo>;

  // Must be called with mu_ held.
  ExprRef InternLocked(const ExprRef& expr);
  // The live entry at `expr`, or nullptr.
  const NodeInfo* FindLocked(const Expr* expr) const;
  // Drops a dead node's entry and, with its last node, its class key.
  void EraseLocked(InfoMap::iterator it);
  // Drops every dead entry.
  void SweepLocked();

  mutable std::mutex mu_;
  // Structural key → canonical node.
  std::unordered_map<std::string, std::weak_ptr<const Expr>> by_key_;
  // Canonical node → its ids and inputs.
  InfoMap info_;
  // Commutative key → class id.
  CidMap cid_by_key_;
  uint64_t next_id_ = 1;
  uint64_t next_cid_ = 1;
  size_t sweep_at_ = kMinSweep;
  static constexpr size_t kMinSweep = 256;
};

}  // namespace dwc

#endif  // DWC_ALGEBRA_INTERNER_H_
