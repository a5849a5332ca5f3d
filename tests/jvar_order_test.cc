#include "core/jvar_order.h"

#include <gtest/gtest.h>

#include <climits>

#include "core/selectivity.h"
#include "sparql/parser.h"

namespace lbr {
namespace {

struct Prepared {
  Gosn gosn;
  Goj goj;
};

Prepared Prepare(const std::string& group) {
  auto g = Parser::ParseGroup(group, {});
  Gosn gosn = Gosn::Build(*g);
  Goj goj = Goj::Build(gosn.tps());
  return Prepared{std::move(gosn), std::move(goj)};
}

TEST(JvarOrderTest, PaperExample2Orders) {
  // Running example: tp1 selective master; tp2/tp3 in the slave.
  Prepared p = Prepare(
      "{ <Jerry> <hasFriend> ?friend . "
      "OPTIONAL { ?friend <actedIn> ?sitcom . ?sitcom <loc> <NYC> . } }");
  // Cards: tp1 selective (2), tp2 (6), tp3 (3) as in Fig 3.2's narrative.
  std::vector<uint64_t> cards{2, 6, 3};
  JvarOrder order = GetJvarOrder(p.gosn, p.goj, cards);
  ASSERT_FALSE(order.greedy);
  int f = p.goj.JvarIndex("friend");
  int s = p.goj.JvarIndex("sitcom");
  // Example-2: order_bu = [friend, (sitcom, friend)], order_td =
  // [friend, (friend, sitcom)].
  EXPECT_EQ(order.order_bu, (std::vector<int>{f, s, f}));
  EXPECT_EQ(order.order_td, (std::vector<int>{f, f, s}));
}

TEST(JvarOrderTest, CyclicFallsBackToGreedy) {
  Prepared p = Prepare(
      "{ ?x <worksFor> <d> . "
      "OPTIONAL { ?y <advisor> ?x . ?x <teacherOf> ?z . "
      "?y <takesCourse> ?z . } }");
  ASSERT_TRUE(p.goj.IsCyclic());
  std::vector<uint64_t> cards{1, 10, 20, 30};
  JvarOrder order = GetJvarOrder(p.gosn, p.goj, cards);
  EXPECT_TRUE(order.greedy);
  EXPECT_EQ(order.order_bu, order.order_td);
  // Greedy ranks by most-selective-holder ascending: x (key 1, via tp0)
  // first, then y (key 10), then z (key 20).
  int x = p.goj.JvarIndex("x"), y = p.goj.JvarIndex("y"),
      z = p.goj.JvarIndex("z");
  EXPECT_EQ(order.order_bu, (std::vector<int>{x, y, z}));
}

TEST(JvarOrderTest, MasterRootIsLeastSelective) {
  // All jvars in one absolute master; root (processed last in bottom-up)
  // must be the least selective one.
  Prepared p = Prepare("{ ?a <p> ?b . ?b <q> ?c . ?c <r> ?d . }");
  // b's best holder: tp0 (5); c's: tp1 (50); d's... d occurs once — not a
  // jvar. Keys: b=5, c=50.
  std::vector<uint64_t> cards{5, 50, 200};
  JvarOrder order = GetJvarOrder(p.gosn, p.goj, cards);
  int b = p.goj.JvarIndex("b"), c = p.goj.JvarIndex("c");
  ASSERT_EQ(order.order_bu.size(), 2u);
  // c (least selective, key 50) is the root: last in bottom-up.
  EXPECT_EQ(order.order_bu.back(), c);
  EXPECT_EQ(order.order_bu.front(), b);
  EXPECT_EQ(order.order_td.front(), c);
}

TEST(JvarOrderTest, SlaveSubtreeRootSharedWithMaster) {
  // Slave holds ?m (shared with master) and ?n (slave-internal): the
  // slave's induced subtree roots at ?m, so ?n precedes ?m in the slave's
  // bottom-up span — masters prune last within the segment.
  Prepared p = Prepare(
      "{ ?a <p> ?m . OPTIONAL { ?m <q> ?n . ?n <r> ?k . } }");
  ASSERT_FALSE(p.goj.IsCyclic());
  std::vector<uint64_t> cards{3, 30, 40};
  JvarOrder order = GetJvarOrder(p.gosn, p.goj, cards);
  int m = p.goj.JvarIndex("m");
  int n = p.goj.JvarIndex("n");
  ASSERT_GE(m, 0);
  ASSERT_GE(n, 0);
  // order_bu = [m (master segment), n, m (slave segment, rooted at m)].
  EXPECT_EQ(order.order_bu, (std::vector<int>{m, n, m}));
  EXPECT_EQ(order.order_td, (std::vector<int>{m, m, n}));
}

TEST(JvarOrderTest, SlaveOrderingMastersFirst) {
  // Nested slaves: outer slave's jvars must appear before inner slave's in
  // the appended spans.
  Prepared p = Prepare(
      "{ ?a <p> ?b . OPTIONAL { ?b <q> ?c . OPTIONAL { ?c <r> ?d . } } }");
  std::vector<uint64_t> cards{1, 10, 100};
  JvarOrder order = GetJvarOrder(p.gosn, p.goj, cards);
  int b = p.goj.JvarIndex("b"), c = p.goj.JvarIndex("c");
  // order_bu: master segment [b], slave SN1 segment [c or (c,b)...], then
  // SN2's segment. b's first occurrence precedes c's.
  EXPECT_LT(FirstIndexOf(order.order_bu, b), FirstIndexOf(order.order_bu, c));
}

TEST(JvarOrderTest, FirstIndexOfHelper) {
  std::vector<int> order{3, 1, 3, 2};
  EXPECT_EQ(FirstIndexOf(order, 3), 0);
  EXPECT_EQ(FirstIndexOf(order, 2), 3);
  EXPECT_EQ(FirstIndexOf(order, 99), INT_MAX);
}

TEST(JvarOrderTest, GreedyOrderSortsBySelectivity) {
  // A cyclic GoJ takes Alg 3.1's greedy fallback.
  Prepared p = Prepare("{ ?a <p> ?b . ?b <q> ?c . ?c <r> ?a . }");
  std::vector<uint64_t> cards{7, 3, 9};
  JvarOrder greedy = GetJvarOrder(p.gosn, p.goj, cards);
  EXPECT_TRUE(greedy.greedy);
  // Keys: a = min(7,9) = 7; b = min(7,3) = 3; c = min(3,9) = 3.
  int a = p.goj.JvarIndex("a");
  EXPECT_EQ(greedy.order_bu.back(), a);
}

TEST(JvarOrderTest, NoJvarsYieldsEmptyOrders) {
  Prepared p = Prepare("{ <s> <p> ?only . }");
  JvarOrder order = GetJvarOrder(p.gosn, p.goj, {5});
  EXPECT_TRUE(order.order_bu.empty());
  EXPECT_TRUE(order.order_td.empty());
}

}  // namespace
}  // namespace lbr
