#include "algebra/interner.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "algebra/expr.h"
#include "algebra/predicate.h"
#include "algebra/subplan_cache.h"
#include "testing/test_util.h"

namespace dwc {
namespace {

using ::dwc::testing::I;

ExprRef SelGt(const char* attr, int64_t threshold, ExprRef child) {
  return Expr::Select(Predicate::Cmp(Operand::Attr(attr), CmpOp::kGt,
                                     Operand::Const(I(threshold))),
                      std::move(child));
}

TEST(InternerTest, EqualTreesBecomeTheSameNode) {
  ExprInterner interner;
  ExprRef a = SelGt("x", 5, Expr::Join(Expr::Base("R"), Expr::Base("S")));
  ExprRef b = SelGt("x", 5, Expr::Join(Expr::Base("R"), Expr::Base("S")));
  ASSERT_NE(a.get(), b.get());

  ExprRef ca = interner.Intern(a);
  ExprRef cb = interner.Intern(b);
  EXPECT_EQ(ca.get(), cb.get());
  EXPECT_EQ(interner.IdOf(ca.get()), interner.IdOf(cb.get()));
  EXPECT_NE(interner.IdOf(ca.get()), 0u);
  // Select + Join + 2 bases: four distinct nodes, both trees collapse
  // onto them.
  EXPECT_EQ(interner.size(), 4u);
}

TEST(InternerTest, SubtreesAreSharedAcrossDifferentRoots) {
  ExprInterner interner;
  ExprRef join = Expr::Join(Expr::Base("R"), Expr::Base("S"));
  ExprRef view = interner.Intern(Expr::Project({"a"}, join));
  ExprRef query = interner.Intern(SelGt("a", 0, join));
  // The shared join subtree is one node reachable from both roots.
  EXPECT_EQ(view->child().get(), query->child().get());
}

TEST(InternerTest, InternIsIdempotent) {
  ExprInterner interner;
  ExprRef canon = interner.Intern(
      Expr::Union(Expr::Base("R"), Expr::Project({"a"}, Expr::Base("S"))));
  EXPECT_EQ(interner.Intern(canon).get(), canon.get());
}

TEST(InternerTest, CidEquatesCommutedJoinAndUnionOnly) {
  ExprInterner interner;
  ExprRef rs_join = interner.Intern(Expr::Join(Expr::Base("R"), Expr::Base("S")));
  ExprRef sr_join = interner.Intern(Expr::Join(Expr::Base("S"), Expr::Base("R")));
  EXPECT_NE(rs_join.get(), sr_join.get());
  EXPECT_NE(interner.IdOf(rs_join.get()), interner.IdOf(sr_join.get()));
  EXPECT_EQ(interner.CidOf(rs_join.get()), interner.CidOf(sr_join.get()));

  ExprRef rs_union =
      interner.Intern(Expr::Union(Expr::Base("R"), Expr::Base("S")));
  ExprRef sr_union =
      interner.Intern(Expr::Union(Expr::Base("S"), Expr::Base("R")));
  EXPECT_EQ(interner.CidOf(rs_union.get()), interner.CidOf(sr_union.get()));
  // Join and union twins must not share a class with each other.
  EXPECT_NE(interner.CidOf(rs_join.get()), interner.CidOf(rs_union.get()));

  // Difference is not commutative: R \ S and S \ R stay distinct classes.
  ExprRef rs_diff =
      interner.Intern(Expr::Difference(Expr::Base("R"), Expr::Base("S")));
  ExprRef sr_diff =
      interner.Intern(Expr::Difference(Expr::Base("S"), Expr::Base("R")));
  EXPECT_NE(interner.CidOf(rs_diff.get()), interner.CidOf(sr_diff.get()));
}

TEST(InternerTest, PayloadsDistinguishNodes) {
  ExprInterner interner;
  ExprRef base = Expr::Base("R");
  uint64_t sel5 = interner.IdOf(interner.Intern(SelGt("x", 5, base)).get());
  uint64_t sel6 = interner.IdOf(interner.Intern(SelGt("x", 6, base)).get());
  uint64_t proj_a =
      interner.IdOf(interner.Intern(Expr::Project({"a"}, base)).get());
  uint64_t proj_b =
      interner.IdOf(interner.Intern(Expr::Project({"b"}, base)).get());
  uint64_t ren = interner.IdOf(
      interner.Intern(Expr::Rename({{"a", "b"}}, base)).get());
  EXPECT_NE(sel5, sel6);
  EXPECT_NE(proj_a, proj_b);
  EXPECT_NE(ren, proj_a);
}

TEST(InternerTest, InterningNeverReordersOperands) {
  // The canonical node must evaluate exactly like the input tree: cids
  // identify commuted twins, but the stored operand order is the original
  // one (the evaluator realigns cache hits instead).
  ExprInterner interner;
  ExprRef sr = interner.Intern(Expr::Join(Expr::Base("S"), Expr::Base("R")));
  EXPECT_EQ(sr->left()->base_name(), "S");
  EXPECT_EQ(sr->right()->base_name(), "R");
}

TEST(InternerTest, InputsOfListsSortedTransitiveBases) {
  ExprInterner interner;
  ExprRef expr = interner.Intern(Expr::Join(
      Expr::Base("Zeta"), SelGt("x", 1, Expr::Join(Expr::Base("Alpha"),
                                                   Expr::Base("Zeta")))));
  std::optional<ExprInterner::Interned> interned = interner.Find(expr.get());
  ASSERT_TRUE(interned.has_value());
  EXPECT_EQ(*interned->inputs, (std::vector<std::string>{"Alpha", "Zeta"}));
}

TEST(InternerTest, ForeignNodesAreUnknown) {
  ExprInterner interner;
  ExprRef foreign = Expr::Base("R");
  EXPECT_EQ(interner.IdOf(foreign.get()), 0u);
  EXPECT_EQ(interner.CidOf(foreign.get()), 0u);
  EXPECT_FALSE(interner.Find(foreign.get()).has_value());
  EXPECT_EQ(interner.IdOf(nullptr), 0u);
}

TEST(InternerTest, ConcurrentInterningConverges) {
  ExprInterner interner;
  std::vector<std::thread> workers;
  std::vector<ExprRef> results(8);
  for (size_t t = 0; t < results.size(); ++t) {
    workers.emplace_back([&interner, &results, t] {
      for (int i = 0; i < 50; ++i) {
        results[t] = interner.Intern(
            SelGt("x", 7, Expr::Join(Expr::Base("R"), Expr::Base("S"))));
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  for (size_t t = 1; t < results.size(); ++t) {
    EXPECT_EQ(results[t].get(), results[0].get());
  }
  EXPECT_EQ(interner.size(), 4u);
}

TEST(InternerTest, DroppedNodesLeaveTheInterner) {
  ExprInterner interner;
  ExprRef held = interner.Intern(Expr::Join(Expr::Base("R"), Expr::Base("S")));
  const size_t base_size = interner.size();
  EXPECT_EQ(base_size, 3u);
  uint64_t last_id = 0;
  for (int64_t k = 0; k < 2000; ++k) {
    // A one-off plan over the held join: only its select node is new.
    ExprRef once = interner.Intern(SelGt("x", k, held));
    EXPECT_EQ(once->child().get(), held.get());
    uint64_t id = interner.IdOf(once.get());
    EXPECT_GT(id, last_id);  // Ids are never reused.
    last_id = id;
  }
  EXPECT_EQ(interner.size(), base_size);
  // The held nodes kept their ids and classes throughout.
  ExprRef again = interner.Intern(Expr::Join(Expr::Base("R"), Expr::Base("S")));
  EXPECT_EQ(again.get(), held.get());
}

TEST(InternerTest, ReinterningADroppedTreeGivesFreshIds) {
  ExprInterner interner;
  uint64_t first_id = 0;
  uint64_t first_cid = 0;
  {
    ExprRef plan = interner.Intern(SelGt("x", 1, Expr::Base("R")));
    first_id = interner.IdOf(plan.get());
    first_cid = interner.CidOf(plan.get());
  }
  EXPECT_EQ(interner.size(), 0u);  // Drops the dead entries and classes.
  ExprRef plan = interner.Intern(SelGt("x", 1, Expr::Base("R")));
  EXPECT_GT(interner.IdOf(plan.get()), first_id);
  EXPECT_GT(interner.CidOf(plan.get()), first_cid);
}

TEST(InternerTest, DeadNodeAddressIsNotMistakenForIt) {
  ExprInterner interner;
  const Expr* dead_address = nullptr;
  {
    ExprRef plan = interner.Intern(Expr::Base("R"));
    dead_address = plan.get();
    ASSERT_NE(interner.IdOf(dead_address), 0u);
  }
  EXPECT_EQ(interner.IdOf(dead_address), 0u);
  EXPECT_EQ(interner.CidOf(dead_address), 0u);
  EXPECT_FALSE(interner.Find(dead_address).has_value());
  // Allocate until a new node lands on the dead node's address (the
  // allocator usually hands it straight back). It must be unknown until
  // interned, and then interned as itself.
  std::vector<ExprRef> keep;
  for (int i = 0; i < 64; ++i) {
    ExprRef fresh = Expr::Base("S");
    if (fresh.get() == dead_address) {
      EXPECT_EQ(interner.IdOf(fresh.get()), 0u);
      ExprRef canonical = interner.Intern(fresh);
      EXPECT_EQ(canonical.get(), fresh.get());
      EXPECT_EQ(canonical->base_name(), "S");
      std::optional<ExprInterner::Interned> interned =
          interner.Find(fresh.get());
      ASSERT_TRUE(interned.has_value());
      EXPECT_EQ(*interned->inputs, std::vector<std::string>{"S"});
      break;
    }
    keep.push_back(std::move(fresh));
  }
}

TEST(InternerTest, CacheEntryKeepsItsProducerInterned) {
  ExprInterner interner;
  SubplanCache cache;
  cache.set_budget(100);
  uint64_t cid = 0;
  {
    ExprRef plan = interner.Intern(SelGt("x", 3, Expr::Base("R")));
    std::optional<ExprInterner::Interned> found = interner.Find(plan.get());
    ASSERT_TRUE(found.has_value());
    cid = found->cid;
    auto rel = std::make_shared<const Relation>(
        Relation(Schema({{"x", ValueType::kInt}})));
    cache.Insert(cid, found->id, {{1, 0}}, rel, std::move(found->node));
  }
  // Only the cache holds the plan now: a structurally equal plan finds the
  // same node, so its cid still keys the cached result.
  ExprRef again = interner.Intern(SelGt("x", 3, Expr::Base("R")));
  EXPECT_EQ(interner.CidOf(again.get()), cid);
  again.reset();
  cache.Clear();
  EXPECT_EQ(interner.size(), 0u);
}

}  // namespace
}  // namespace dwc
