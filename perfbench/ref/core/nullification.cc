#include "core/nullification.h"

#include <algorithm>

namespace lbr {

std::vector<int> FailureClosure(const Gosn& gosn,
                                const std::vector<int>& seed_supernodes) {
  int n = gosn.num_supernodes();
  std::vector<bool> failed(n, false);
  for (int sn : seed_supernodes) {
    if (!gosn.IsAbsoluteMaster(sn)) failed[sn] = true;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (int sn = 0; sn < n; ++sn) {
      if (failed[sn] || gosn.IsAbsoluteMaster(sn)) continue;
      for (int other = 0; other < n; ++other) {
        if (!failed[other]) continue;
        // A slave of a failed supernode fails; a (non-absolute-master) peer
        // of a failed supernode fails.
        if (gosn.IsMasterOf(other, sn) ||
            (other != sn && gosn.IsPeer(other, sn))) {
          failed[sn] = true;
          changed = true;
          break;
        }
      }
    }
  }
  std::vector<int> out;
  for (int sn = 0; sn < n; ++sn) {
    if (failed[sn]) out.push_back(sn);
  }
  return out;
}

}  // namespace lbr
