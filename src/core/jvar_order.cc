#include "core/jvar_order.h"

#include <algorithm>
#include <climits>
#include <limits>
#include <set>

#include "core/selectivity.h"

namespace lbr {

namespace {

// Selectivity key per jvar: triple count of the most selective TP holding
// the jvar. Smaller key == more selective.
std::vector<uint64_t> JvarKeys(const Goj& goj,
                               const std::vector<uint64_t>& tp_cards) {
  std::vector<uint64_t> keys(goj.num_jvars());
  for (int j = 0; j < goj.num_jvars(); ++j) {
    keys[j] = JvarSelectivityKey(tp_cards, goj.tps_of_jvar()[j]);
  }
  return keys;
}

// Jvars appearing in any TP of supernode `sn`.
std::vector<int> JvarsInSupernode(const Gosn& gosn, const Goj& goj, int sn) {
  std::set<int> out;
  for (int tp_id : gosn.supernode(sn).tp_ids) {
    for (const std::string& v : gosn.tps()[tp_id].Vars()) {
      int j = goj.JvarIndex(v);
      if (j >= 0) out.insert(j);
    }
  }
  return std::vector<int>(out.begin(), out.end());
}

// Minimum TP cardinality within a supernode (its most selective TP).
uint64_t SupernodeSelectivityKey(const Gosn& gosn,
                                 const std::vector<uint64_t>& tp_cards,
                                 int sn) {
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (int tp_id : gosn.supernode(sn).tp_ids) {
    best = std::min(best, tp_cards[tp_id]);
  }
  return best;
}

// Alg 3.1's cyclic fallback: all jvars in descending selectivity (most
// selective first) for both passes.
JvarOrder GetGreedyJvarOrder(const Goj& goj,
                             const std::vector<uint64_t>& tp_cards) {
  std::vector<uint64_t> keys = JvarKeys(goj, tp_cards);
  std::vector<int> greedy(goj.num_jvars());
  for (int j = 0; j < goj.num_jvars(); ++j) greedy[j] = j;
  std::stable_sort(greedy.begin(), greedy.end(),
                   [&keys](int a, int b) { return keys[a] < keys[b]; });
  JvarOrder result;
  result.order_bu = greedy;
  result.order_td = greedy;
  result.greedy = true;
  return result;
}

}  // namespace

int FirstIndexOf(const std::vector<int>& order, int jvar) {
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == jvar) return static_cast<int>(i);
  }
  return INT_MAX;
}

JvarOrder GetJvarOrder(const Gosn& gosn, const Goj& goj,
                       const std::vector<uint64_t>& tp_cards) {
  if (goj.IsCyclic()) return GetGreedyJvarOrder(goj, tp_cards);
  JvarOrder result;
  std::vector<uint64_t> keys = JvarKeys(goj, tp_cards);

  // Jm: jvars in absolute master supernodes.
  std::set<int> jm_set;
  for (int sn : gosn.AbsoluteMasters()) {
    for (int j : JvarsInSupernode(gosn, goj, sn)) jm_set.insert(j);
  }
  std::vector<int> jm(jm_set.begin(), jm_set.end());

  // Root of the master tree: the LEAST selective master jvar (largest key),
  // so it is processed last in the bottom-up pass.
  int master_root = -1;
  uint64_t worst = 0;
  for (int j : jm) {
    if (master_root == -1 || keys[j] > worst) {
      master_root = j;
      worst = keys[j];
    }
  }

  if (master_root >= 0) {
    Goj::InducedTree tm = goj.GetTree(jm, master_root);
    for (int j : Goj::BottomUp(tm)) result.order_bu.push_back(j);
    for (int j : Goj::TopDown(tm)) result.order_td.push_back(j);
  }

  // SNss: slave supernodes ordered masters-first; among incomparable
  // supernodes the one holding a more selective TP goes first.
  std::vector<int> snss = gosn.SlaveSupernodes();
  std::stable_sort(snss.begin(), snss.end(), [&](int a, int b) {
    if (gosn.IsMasterOf(a, b)) return true;
    if (gosn.IsMasterOf(b, a)) return false;
    if (gosn.MasterDepth(a) != gosn.MasterDepth(b)) {
      return gosn.MasterDepth(a) < gosn.MasterDepth(b);
    }
    return SupernodeSelectivityKey(gosn, tp_cards, a) <
           SupernodeSelectivityKey(gosn, tp_cards, b);
  });

  for (int sn : snss) {
    std::vector<int> js = JvarsInSupernode(gosn, goj, sn);
    if (js.empty()) continue;
    // Root: a jvar of this supernode shared with one of its masters (the
    // connected, Cartesian-free GoJ guarantees one exists). Prefer the most
    // selective such jvar; fall back to the most selective jvar of js.
    int root = -1;
    uint64_t best = std::numeric_limits<uint64_t>::max();
    for (int j : js) {
      bool in_master = false;
      for (int tp_id : goj.tps_of_jvar()[j]) {
        int other_sn = gosn.SupernodeOf(tp_id);
        if (other_sn != sn && (gosn.IsMasterOf(other_sn, sn) ||
                               (gosn.IsPeer(other_sn, sn) && other_sn != sn))) {
          in_master = true;
          break;
        }
      }
      if (in_master && keys[j] < best) {
        root = j;
        best = keys[j];
      }
    }
    if (root == -1) {
      for (int j : js) {
        if (keys[j] < best) {
          root = j;
          best = keys[j];
        }
      }
    }
    Goj::InducedTree ts = goj.GetTree(js, root);
    for (int j : Goj::BottomUp(ts)) result.order_bu.push_back(j);
    for (int j : Goj::TopDown(ts)) result.order_td.push_back(j);
  }
  return result;
}

}  // namespace lbr
