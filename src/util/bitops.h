#ifndef LBR_UTIL_BITOPS_H_
#define LBR_UTIL_BITOPS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lbr {
namespace bitops {

/// Shared word-parallel kernels for the bit substrate.
///
/// Every bit container in the engine (Bitvector, CompressedRow decode paths,
/// BitMat fold/unfold) bottoms out here, so "bit operations as fast as the
/// hardware allows" has exactly one implementation to get right.
///
/// Word-alignment contract (see DESIGN.md §2, §8):
///  - words are uint64_t, bit `i` of a logical array lives at word `i / 64`,
///    position `i % 64`, LSB first;
///  - callers guarantee every word past the logical size is zero (the
///    "zero-tail invariant"), so whole-word AND/OR/popcount never need a
///    per-call size mask;
///  - ranges are half-open `[begin, end)` in bit coordinates and must be
///    pre-clamped by the caller to the destination's logical size.
///
/// Dispatch (DESIGN.md §8): the bulk kernels below route through a table of
/// function pointers selected once at startup from CPUID: SSE4.2+POPCNT
/// when the CPU has it, else the portable scalar path. There is no wider
/// tier: 256-bit kernels measured slower end to end (DESIGN.md §8). The
/// scalar implementations are both the fallback on older hardware and the
/// correctness oracle for the randomized differential suite
/// (tests/simd_kernel_test). Setting the LBR_FORCE_SCALAR environment
/// variable (non-empty, not "0") pins the scalar path regardless of CPU
/// support. Word buffers need no particular alignment — the vector paths
/// use unaligned loads/stores — and never read past `n` words, so the
/// zero-tail invariant is preserved verbatim.

inline constexpr size_t kWordBits = 64;

/// Number of 64-bit words needed for `bits` bits.
constexpr size_t WordsFor(size_t bits) { return (bits + 63) >> 6; }

/// Mask selecting the live bits of the last word of a `bits`-bit array
/// (all ones when `bits` is a multiple of 64).
inline uint64_t TailMask(size_t bits) {
  size_t rem = bits & 63;
  return rem == 0 ? ~uint64_t{0} : (uint64_t{1} << rem) - 1;
}

namespace detail {

/// The dispatched kernel set. One instance per backend; `ActiveKernels`
/// (below) picks among them once at startup. Members mirror the public
/// wrappers' contracts one-to-one.
struct KernelTable {
  const char* name;
  void (*and_words)(uint64_t* dst, const uint64_t* src, size_t n);
  void (*or_words)(uint64_t* dst, const uint64_t* src, size_t n);
  void (*andnot_words)(uint64_t* dst, const uint64_t* src, size_t n);
  uint64_t (*popcount_words)(const uint64_t* w, size_t n);
  uint64_t (*popcount_range)(const uint64_t* w, size_t begin, size_t end);
  void (*set_bit_range)(uint64_t* w, size_t begin, size_t end);
  bool (*any_in_range)(const uint64_t* w, size_t begin, size_t end);
  bool (*all_in_range)(const uint64_t* w, size_t begin, size_t end);
  void (*append_set_bits)(const uint64_t* w, size_t n, uint32_t base,
                          std::vector<uint32_t>* out);
  void (*append_set_bits_in_range)(const uint64_t* w, size_t begin,
                                   size_t end, std::vector<uint32_t>* out);
  void (*append_and_set_bits)(const uint64_t* a, const uint64_t* b, size_t n,
                              std::vector<uint32_t>* out);
  size_t (*intersect_sorted_u32)(const uint32_t* a, size_t na,
                                 const uint32_t* b, size_t nb, uint32_t* out);
};

/// The active table. Constant-initialized to the scalar table (so callers
/// running during static initialization of other TUs are always safe), then
/// upgraded once by the startup selector. Relaxed atomics keep the
/// concurrent reads of the parallel layer race-free; the pointer only
/// changes before threads exist (startup) or from single-threaded test
/// code (ForceKernelBackend).
extern std::atomic<const KernelTable*> g_active;

inline const KernelTable& Active() {
  return *g_active.load(std::memory_order_relaxed);
}

}  // namespace detail

/// Kernel backends in selection-priority order (highest last).
enum class KernelBackend : uint8_t { kScalar = 0, kSse42 = 1 };

/// The table for `backend`, or nullptr when this build/CPU cannot run it
/// (scalar is always available).
const detail::KernelTable* KernelsFor(KernelBackend backend);

/// The backend the dispatcher selected (or was forced to).
KernelBackend ActiveKernelBackend();
/// Human-readable name of the active table ("scalar" or "sse4.2").
const char* ActiveKernelName();

/// Pins the active table to `backend` — test/bench hook for comparing
/// backends inside one process. No-op (returns false) when the backend is
/// unavailable. Not thread-safe against in-flight kernel calls; call it
/// only from single-threaded setup code.
bool ForceKernelBackend(KernelBackend backend);
/// Re-runs the startup selection (CPUID + LBR_FORCE_SCALAR).
void ResetKernelBackend();

/// dst[i] &= src[i].
inline void AndWords(uint64_t* dst, const uint64_t* src, size_t n) {
  detail::Active().and_words(dst, src, n);
}

/// dst[i] |= src[i].
inline void OrWords(uint64_t* dst, const uint64_t* src, size_t n) {
  detail::Active().or_words(dst, src, n);
}

/// dst[i] &= ~src[i].
inline void AndNotWords(uint64_t* dst, const uint64_t* src, size_t n) {
  detail::Active().andnot_words(dst, src, n);
}

/// Total set bits in w[0..n).
inline uint64_t PopcountWords(const uint64_t* w, size_t n) {
  return detail::Active().popcount_words(w, n);
}

/// True iff any bit of w[0..n) is set. Early-exits; stays scalar (the loop
/// is load+test, and the expected exit is within a few words).
inline bool AnyWord(const uint64_t* w, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (w[i] != 0) return true;
  }
  return false;
}

/// True iff a[0..n) and b[0..n) share a set bit. Early-exits on the first
/// intersecting word.
inline bool AnyAndWord(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

/// Sets every bit in [begin, end) of `w`. A run decodes into at most two
/// partial-word masks plus whole ~0 words — no per-bit work.
inline void SetBitRange(uint64_t* w, size_t begin, size_t end) {
  detail::Active().set_bit_range(w, begin, end);
}

/// Clears every bit in [begin, end) of `w`.
void ClearBitRange(uint64_t* w, size_t begin, size_t end);

/// True iff any bit in [begin, end) of `w` is set. Early-exits.
inline bool AnyInRange(const uint64_t* w, size_t begin, size_t end) {
  return detail::Active().any_in_range(w, begin, end);
}

/// True iff every bit in [begin, end) of `w` is set. Early-exits on the
/// first hole — the word-parallel form of "does a 1-run survive a mask
/// whole", used by the copy-on-write unchanged-row tests.
inline bool AllInRange(const uint64_t* w, size_t begin, size_t end) {
  return detail::Active().all_in_range(w, begin, end);
}

/// Number of set bits in [begin, end) of `w`.
inline uint64_t PopcountRange(const uint64_t* w, size_t begin, size_t end) {
  return detail::Active().popcount_range(w, begin, end);
}

/// Appends the positions of all set bits of w[0..n), offset by `base`,
/// to `*out` in ascending order.
inline void AppendSetBits(const uint64_t* w, size_t n, uint32_t base,
                          std::vector<uint32_t>* out) {
  detail::Active().append_set_bits(w, n, base, out);
}

/// Appends the positions of the set bits of `w` inside [begin, end) to
/// `*out` in ascending order — the word-parallel form of "intersect a run
/// with a mask and keep the surviving positions". Zero mask words inside the
/// range are skipped at word granularity.
inline void AppendSetBitsInRange(const uint64_t* w, size_t begin, size_t end,
                                 std::vector<uint32_t>* out) {
  detail::Active().append_set_bits_in_range(w, begin, end, out);
}

/// Appends the positions of the set bits of a[0..n) & b[0..n) to `*out` in
/// ascending order, without materializing the intersection — the candidate
/// enumeration core of the multiway join (candidate bits ∧ constraint mask
/// → positions buffer in one pass). Words whose AND is zero cost one test.
inline void AppendAndSetBits(const uint64_t* a, const uint64_t* b, size_t n,
                             std::vector<uint32_t>* out) {
  detail::Active().append_and_set_bits(a, b, n, out);
}

/// Intersects two sorted, duplicate-free uint32 position lists, writing the
/// common values (ascending) to `out` and returning how many were written.
/// `out` must have room for min(na, nb) entries; the vector path stores
/// whole 4-lane blocks, so slots past the returned count (but within that
/// bound) may be scribbled. Writing in place (`out == a`) is safe: the
/// output cursor never passes the `a` read cursor's loaded block. This is
/// the position ∧ constraint-row merge of
/// CompressedRow::IntersectSortedPositions.
inline size_t IntersectSortedU32(const uint32_t* a, size_t na,
                                 const uint32_t* b, size_t nb,
                                 uint32_t* out) {
  return detail::Active().intersect_sorted_u32(a, na, b, nb, out);
}

}  // namespace bitops
}  // namespace lbr

#endif  // LBR_UTIL_BITOPS_H_
