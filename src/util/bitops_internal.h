#ifndef LBR_UTIL_BITOPS_INTERNAL_H_
#define LBR_UTIL_BITOPS_INTERNAL_H_

#include "util/bitops.h"

/// Internal glue between the dispatcher (bitops.cc) and the one vector
/// translation unit (bitops_sse42.cc). That TU is compiled with its own -m
/// flags (CMake sets them per source file) and exposes exactly one getter
/// returning its table, or nullptr when the compiler could not target the
/// ISA or the CPU cannot run it. Nothing here is part of the public bitops
/// API.

namespace lbr {
namespace bitops {
namespace detail {

/// Mask of the bits of one word covered by [begin, end) when both fall in
/// that word's range. `lo`/`hi` are in-word bit offsets, hi exclusive.
inline uint64_t SpanMask(size_t lo, size_t hi) {
  uint64_t high = (hi >= 64) ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
  return high & ~((uint64_t{1} << lo) - 1);
}

/// Scalar reference table (always available; defined in bitops.cc).
const KernelTable* ScalarTable();
/// SSE4.2 table, or nullptr when this build or CPU cannot run SSE4.2.
const KernelTable* Sse42Table();

}  // namespace detail
}  // namespace bitops
}  // namespace lbr

#endif  // LBR_UTIL_BITOPS_INTERNAL_H_
