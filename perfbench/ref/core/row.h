#ifndef LBR_CORE_ROW_H_
#define LBR_CORE_ROW_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace lbr {

/// NULL marker inside a RawRow (a left-outer-join miss).
constexpr uint64_t kNullBinding = std::numeric_limits<uint64_t>::max();

/// One result row in the global ID space: one slot per query variable,
/// kNullBinding for unbound. Column order is fixed by the engine's variable
/// table.
using RawRow = std::vector<uint64_t>;

/// Hash for RawRow keys in unordered containers on the per-result-row path
/// (phantom-row dedup, UNION multiplicity repair): a boost-style combine of
/// the bindings, O(columns) with no allocation.
struct RawRowHash {
  size_t operator()(const RawRow& row) const {
    uint64_t h = 0x9e3779b97f4a7c15ull ^ row.size();
    for (uint64_t v : row) {
      v *= 0xff51afd7ed558ccdull;  // splitmix64-style mixing of each slot
      v ^= v >> 33;
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

/// True iff `sub` is subsumed by `super` (sub ❁ super, Section 3.1): every
/// non-null binding of `sub` equals the corresponding binding of `super`,
/// and `super` has strictly more non-null bindings.
inline bool IsSubsumedBy(const RawRow& sub, const RawRow& super) {
  bool super_has_more = false;
  for (size_t i = 0; i < sub.size(); ++i) {
    if (sub[i] == kNullBinding) {
      if (super[i] != kNullBinding) super_has_more = true;
    } else if (sub[i] != super[i]) {
      return false;
    }
  }
  return super_has_more;
}

/// Number of null bindings in a row.
inline size_t CountNulls(const RawRow& row) {
  size_t n = 0;
  for (uint64_t v : row) {
    if (v == kNullBinding) ++n;
  }
  return n;
}

}  // namespace lbr

#endif  // LBR_CORE_ROW_H_
