#ifndef LBR_CORE_JVAR_ORDER_H_
#define LBR_CORE_JVAR_ORDER_H_

#include <cstdint>
#include <vector>

#include "core/goj.h"
#include "core/gosn.h"

namespace lbr {

/// Output of get_jvar_order (Algorithm 3.1): the bottom-up and top-down
/// processing orders of join variables (jvar indexes into Goj::jvars()).
/// For a cyclic GoJ both orders are the greedy selectivity order.
struct JvarOrder {
  std::vector<int> order_bu;
  std::vector<int> order_td;
  bool greedy = false;  ///< True when the cyclic greedy fallback was taken.
};

/// Algorithm 3.1 (get_jvar_order).
///
/// Acyclic GoJ: an induced subtree over the jvars of absolute master
/// supernodes is traversed bottom-up with the least selective master jvar as
/// root (so it is processed last); then each remaining slave supernode — in
/// masters-first, selective-peers-first order — contributes a bottom-up pass
/// over the subtree induced by its jvars, rooted at a jvar it shares with a
/// master. The top-down order mirrors the procedure with top-down passes.
///
/// Cyclic GoJ: returns the greedy order (jvars in descending selectivity,
/// i.e. most selective first) for both passes.
///
/// `tp_cardinalities[tp_id]` supplies the selectivity figures (estimated or
/// exact triple counts per TP).
JvarOrder GetJvarOrder(const Gosn& gosn, const Goj& goj,
                       const std::vector<uint64_t>& tp_cardinalities);

/// First occurrence of `jvar` in `order`; the paper uses this to pick S-O
/// vs O-S orientation when loading two-variable TPs. Returns INT_MAX when
/// absent.
int FirstIndexOf(const std::vector<int>& order, int jvar);

}  // namespace lbr

#endif  // LBR_CORE_JVAR_ORDER_H_
