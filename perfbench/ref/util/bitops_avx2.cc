#include "util/bitops_internal.h"

// AVX2 kernel backend. This TU is the only one compiled with -mavx2 (CMake
// sets the flag per source file), so no AVX2 instruction can leak into code
// that runs before dispatch: Avx2Table() itself checks CPUID and returns
// nullptr on hardware without AVX2, and everything vectorized lives behind
// the returned function pointers.
//
// All loads/stores are unaligned (vmovdqu); no path reads past the caller's
// word count, so the zero-tail invariant holds exactly as in the scalar
// kernels. Partial head/tail words of range kernels are handled scalar —
// the vector body only ever sees whole words.

#if defined(__AVX2__)

#include <immintrin.h>

namespace lbr {
namespace bitops {
namespace {

using detail::SpanMask;

void AndWordsAvx2(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 4));
    __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(a0, b0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 4),
                        _mm256_and_si256(a1, b1));
  }
  for (; i + 4 <= n; i += 4) {
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(a, b));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

void OrWordsAvx2(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 4));
    __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(a0, b0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 4),
                        _mm256_or_si256(a1, b1));
  }
  for (; i + 4 <= n; i += 4) {
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(a, b));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

void AndNotWordsAvx2(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    // andnot computes ~first & second, so src goes first.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(b, a));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

/// Per-byte popcount of `v` via the classic nibble lookup, summed into four
/// 64-bit lanes by SAD against zero.
inline __m256i Popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i lo = _mm256_and_si256(v, low_mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

uint64_t PopcountWordsAvx2(const uint64_t* w, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  uint64_t c = static_cast<uint64_t>(_mm256_extract_epi64(acc, 0)) +
               static_cast<uint64_t>(_mm256_extract_epi64(acc, 1)) +
               static_cast<uint64_t>(_mm256_extract_epi64(acc, 2)) +
               static_cast<uint64_t>(_mm256_extract_epi64(acc, 3));
  for (; i < n; ++i) {
    c += static_cast<uint64_t>(__builtin_popcountll(w[i]));
  }
  return c;
}

uint64_t PopcountRangeAvx2(const uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return 0;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    return static_cast<uint64_t>(__builtin_popcountll(
        w[first] & SpanMask(begin & 63, ((end - 1) & 63) + 1)));
  }
  uint64_t c = static_cast<uint64_t>(
      __builtin_popcountll(w[first] & SpanMask(begin & 63, 64)));
  c += PopcountWordsAvx2(w + first + 1, last - first - 1);
  c += static_cast<uint64_t>(
      __builtin_popcountll(w[last] & SpanMask(0, ((end - 1) & 63) + 1)));
  return c;
}

void SetBitRangeAvx2(uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    w[first] |= SpanMask(begin & 63, ((end - 1) & 63) + 1);
    return;
  }
  w[first] |= SpanMask(begin & 63, 64);
  size_t i = first + 1;
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (; i + 4 <= last; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(w + i), ones);
  }
  for (; i < last; ++i) w[i] = ~uint64_t{0};
  w[last] |= SpanMask(0, ((end - 1) & 63) + 1);
}

bool AnyInRangeAvx2(const uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return false;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    return (w[first] & SpanMask(begin & 63, ((end - 1) & 63) + 1)) != 0;
  }
  if ((w[first] & SpanMask(begin & 63, 64)) != 0) return true;
  size_t i = first + 1;
  for (; i + 4 <= last; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    if (!_mm256_testz_si256(v, v)) return true;
  }
  for (; i < last; ++i) {
    if (w[i] != 0) return true;
  }
  return (w[last] & SpanMask(0, ((end - 1) & 63) + 1)) != 0;
}

bool AllInRangeAvx2(const uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return true;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    uint64_t span = SpanMask(begin & 63, ((end - 1) & 63) + 1);
    return (w[first] & span) == span;
  }
  uint64_t head = SpanMask(begin & 63, 64);
  if ((w[first] & head) != head) return false;
  size_t i = first + 1;
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (; i + 4 <= last; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    // testc: true iff ~v & ones == 0, i.e. every bit of the block is set.
    if (!_mm256_testc_si256(v, ones)) return false;
  }
  for (; i < last; ++i) {
    if (w[i] != ~uint64_t{0}) return false;
  }
  uint64_t tail = SpanMask(0, ((end - 1) & 63) + 1);
  return (w[last] & tail) == tail;
}

/// Extracts the set bits of one word into *out. Shared tail of the three
/// append kernels.
inline void ExtractWord(uint64_t word, uint32_t word_base,
                        std::vector<uint32_t>* out) {
  while (word != 0) {
    out->push_back(word_base + static_cast<uint32_t>(__builtin_ctzll(word)));
    word &= word - 1;
  }
}

void AppendSetBitsAvx2(const uint64_t* w, size_t n, uint32_t base,
                       std::vector<uint32_t>* out) {
  size_t i = 0;
  // Blocks whose 256-bit OR is zero cost one load+test — the common case on
  // sparse fold masks and candidate rows.
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    if (_mm256_testz_si256(v, v)) continue;
    for (size_t k = i; k < i + 4; ++k) {
      ExtractWord(w[k], base + static_cast<uint32_t>(k << 6), out);
    }
  }
  for (; i < n; ++i) {
    ExtractWord(w[i], base + static_cast<uint32_t>(i << 6), out);
  }
}

void AppendSetBitsInRangeAvx2(const uint64_t* w, size_t begin, size_t end,
                              std::vector<uint32_t>* out) {
  if (begin >= end) return;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    ExtractWord(w[first] & SpanMask(begin & 63, ((end - 1) & 63) + 1),
                static_cast<uint32_t>(first << 6), out);
    return;
  }
  ExtractWord(w[first] & SpanMask(begin & 63, 64),
              static_cast<uint32_t>(first << 6), out);
  size_t i = first + 1;
  for (; i + 4 <= last; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    if (_mm256_testz_si256(v, v)) continue;
    for (size_t k = i; k < i + 4; ++k) {
      ExtractWord(w[k], static_cast<uint32_t>(k << 6), out);
    }
  }
  for (; i < last; ++i) {
    ExtractWord(w[i], static_cast<uint32_t>(i << 6), out);
  }
  ExtractWord(w[last] & SpanMask(0, ((end - 1) & 63) + 1),
              static_cast<uint32_t>(last << 6), out);
}

void AppendAndSetBitsAvx2(const uint64_t* a, const uint64_t* b, size_t n,
                          std::vector<uint32_t>* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // testz on (va, vb) computes va & vb == 0 directly — no AND needed for
    // the (dominant) disjoint blocks.
    if (_mm256_testz_si256(va, vb)) continue;
    for (size_t k = i; k < i + 4; ++k) {
      ExtractWord(a[k] & b[k], static_cast<uint32_t>(k << 6), out);
    }
  }
  for (; i < n; ++i) {
    ExtractWord(a[i] & b[i], static_cast<uint32_t>(i << 6), out);
  }
}

/// Byte-shuffle patterns compacting the selected 32-bit lanes of an __m128i
/// to the front, one per 4-bit lane mask.
struct ShuffleTable {
  alignas(16) uint8_t b[16][16];
};

constexpr ShuffleTable MakeShuffleTable() {
  ShuffleTable t{};
  for (int m = 0; m < 16; ++m) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((m & (1 << lane)) == 0) continue;
      for (int byte = 0; byte < 4; ++byte) {
        t.b[m][out * 4 + byte] = static_cast<uint8_t>(lane * 4 + byte);
      }
      ++out;
    }
    for (; out < 4; ++out) {
      for (int byte = 0; byte < 4; ++byte) {
        t.b[m][out * 4 + byte] = 0x80;  // zero the unused lanes
      }
    }
  }
  return t;
}

constexpr ShuffleTable kShuffleTable = MakeShuffleTable();

/// Block-of-4 sorted-set intersection (the cyclic-shuffle scheme of the
/// SIMD set-intersection literature): compare each 4-lane block of `a`
/// against the four rotations of `b`'s block, accumulate the match mask of
/// the live `a` block across b-side advances, and compact it with one
/// shuffle when the block retires. Inputs are duplicate-free, so a lane
/// matches at most one rotation and the compaction stays duplicate-free
/// and sorted. Compacting only at retirement keeps `kept <= i` at every
/// store, so the 4-lane store's scribble lanes never reach past the block
/// being retired — the invariant that makes `out == a` safe.
size_t IntersectSortedU32Simd(const uint32_t* a, size_t na, const uint32_t* b,
                              size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, kept = 0;
  unsigned pending = 0;  // match mask of the live a block, not yet stored
  if (na >= 4 && nb >= 4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    while (true) {
      __m128i cmp = _mm_cmpeq_epi32(va, vb);
      __m128i rot1 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
      __m128i rot2 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
      __m128i rot3 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3));
      cmp = _mm_or_si128(cmp, _mm_cmpeq_epi32(va, rot1));
      cmp = _mm_or_si128(
          cmp, _mm_or_si128(_mm_cmpeq_epi32(va, rot2),
                            _mm_cmpeq_epi32(va, rot3)));
      pending |= static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(cmp)));
      // Block maxima from the registers, not memory: earlier in-place
      // stores may have scribbled the retired prefix.
      uint32_t amax = static_cast<uint32_t>(_mm_extract_epi32(va, 3));
      uint32_t bmax = static_cast<uint32_t>(_mm_extract_epi32(vb, 3));
      bool advance_b = bmax <= amax;
      if (amax <= bmax) {
        if (pending != 0) {
          __m128i compacted = _mm_shuffle_epi8(
              va,
              _mm_load_si128(reinterpret_cast<const __m128i*>(
                  kShuffleTable.b[pending])));
          _mm_storeu_si128(reinterpret_cast<__m128i*>(out + kept), compacted);
          kept += static_cast<size_t>(__builtin_popcount(pending));
          pending = 0;
        }
        i += 4;
        if (i + 4 > na) break;
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (advance_b) {
        j += 4;
        if (j + 4 > nb) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  if (pending != 0) {
    // The loop exited on the b side with matches recorded for the live
    // a block. Its memory is pristine (stores stop at the last retired
    // block), so finish its four lanes in scalar: already-matched lanes
    // are emitted directly, the rest run the two-pointer search.
    for (int lane = 0; lane < 4; ++lane) {
      uint32_t av = a[i + lane];
      if ((pending >> lane) & 1u) {
        out[kept++] = av;
      } else {
        while (j < nb && b[j] < av) ++j;
        if (j < nb && b[j] == av) out[kept++] = b[j++];
      }
    }
    i += 4;
  }
  while (i < na && j < nb) {
    uint32_t av = a[i], bv = b[j];
    if (av < bv) {
      ++i;
    } else if (bv < av) {
      ++j;
    } else {
      out[kept++] = av;
      ++i;
      ++j;
    }
  }
  return kept;
}

constexpr detail::KernelTable kAvx2Table = {
    "avx2",
    &AndWordsAvx2,
    &OrWordsAvx2,
    &AndNotWordsAvx2,
    &PopcountWordsAvx2,
    &PopcountRangeAvx2,
    &SetBitRangeAvx2,
    &AnyInRangeAvx2,
    &AllInRangeAvx2,
    &AppendSetBitsAvx2,
    &AppendSetBitsInRangeAvx2,
    &AppendAndSetBitsAvx2,
    &IntersectSortedU32Simd,
};

}  // namespace

namespace detail {

const KernelTable* Avx2Table() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &kAvx2Table : nullptr;
}

}  // namespace detail

}  // namespace bitops
}  // namespace lbr

#else  // !defined(__AVX2__)

namespace lbr {
namespace bitops {
namespace detail {

const KernelTable* Avx2Table() { return nullptr; }

}  // namespace detail
}  // namespace bitops
}  // namespace lbr

#endif  // defined(__AVX2__)
