#ifndef LBR_CORE_NULLIFICATION_H_
#define LBR_CORE_NULLIFICATION_H_

#include <vector>

#include "core/gosn.h"

namespace lbr {

/// Computes the closure of failed supernodes for nullification (Section 3.1
/// / the FaN routine of Section 5.2).
///
/// When a slave supernode's TP group fails to match consistently, the whole
/// group must become NULL, and the failure cascades:
///  - to every supernode the failed one is a master of (its OPTIONAL
///    pattern joined against vanished bindings), and
///  - to every peer of a failed supernode (the inner join within the group
///    fails with it),
/// iterated to a fixed point. Absolute masters never enter the closure —
/// their bindings cannot be nulled (Alg 5.4 rolls back instead).
std::vector<int> FailureClosure(const Gosn& gosn,
                                const std::vector<int>& seed_supernodes);

}  // namespace lbr

#endif  // LBR_CORE_NULLIFICATION_H_
