#include "util/bitops_internal.h"

// SSE4.2 kernel backend — the one vector tier above the portable scalar
// table: 128-bit vectors plus hardware popcount. Wider vectors were measured
// slower end to end (DESIGN.md §8). Compiled with -msse4.2 -mpopcnt for this
// TU only; Sse42Table() checks CPUID and returns nullptr when the host
// cannot run it.
//
// Same contracts as the scalar kernels: unaligned loads/stores, never reads
// past the caller's word count, zero-tail invariant untouched, partial
// head/tail words of range kernels handled scalar.

#if defined(__SSE4_2__)

#include <nmmintrin.h>
#include <tmmintrin.h>

namespace lbr {
namespace bitops {
namespace {

using detail::SpanMask;

void AndWordsSse42(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i a0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    __m128i a1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i + 2));
    __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i b1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_and_si128(a0, b0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 2),
                     _mm_and_si128(a1, b1));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

void OrWordsSse42(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i a0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    __m128i a1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i + 2));
    __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i b1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_or_si128(a0, b0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 2),
                     _mm_or_si128(a1, b1));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

void AndNotWordsSse42(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_andnot_si128(b, a));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

uint64_t PopcountWordsSse42(const uint64_t* w, size_t n) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<uint64_t>(_mm_popcnt_u64(w[i]));
    c1 += static_cast<uint64_t>(_mm_popcnt_u64(w[i + 1]));
    c2 += static_cast<uint64_t>(_mm_popcnt_u64(w[i + 2]));
    c3 += static_cast<uint64_t>(_mm_popcnt_u64(w[i + 3]));
  }
  for (; i < n; ++i) c0 += static_cast<uint64_t>(_mm_popcnt_u64(w[i]));
  return c0 + c1 + c2 + c3;
}

uint64_t PopcountRangeSse42(const uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return 0;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    return static_cast<uint64_t>(_mm_popcnt_u64(
        w[first] & SpanMask(begin & 63, ((end - 1) & 63) + 1)));
  }
  uint64_t c = static_cast<uint64_t>(
      _mm_popcnt_u64(w[first] & SpanMask(begin & 63, 64)));
  c += PopcountWordsSse42(w + first + 1, last - first - 1);
  c += static_cast<uint64_t>(
      _mm_popcnt_u64(w[last] & SpanMask(0, ((end - 1) & 63) + 1)));
  return c;
}

void SetBitRangeSse42(uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    w[first] |= SpanMask(begin & 63, ((end - 1) & 63) + 1);
    return;
  }
  w[first] |= SpanMask(begin & 63, 64);
  size_t i = first + 1;
  const __m128i ones = _mm_set1_epi64x(-1);
  for (; i + 2 <= last; i += 2) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(w + i), ones);
  }
  for (; i < last; ++i) w[i] = ~uint64_t{0};
  w[last] |= SpanMask(0, ((end - 1) & 63) + 1);
}

bool AnyInRangeSse42(const uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return false;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    return (w[first] & SpanMask(begin & 63, ((end - 1) & 63) + 1)) != 0;
  }
  if ((w[first] & SpanMask(begin & 63, 64)) != 0) return true;
  size_t i = first + 1;
  for (; i + 2 <= last; i += 2) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    if (!_mm_testz_si128(v, v)) return true;
  }
  for (; i < last; ++i) {
    if (w[i] != 0) return true;
  }
  return (w[last] & SpanMask(0, ((end - 1) & 63) + 1)) != 0;
}

bool AllInRangeSse42(const uint64_t* w, size_t begin, size_t end) {
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
  const __m128i ones = _mm_set1_epi64x(-1);
  for (; i + 2 <= last; i += 2) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    if (!_mm_testc_si128(v, ones)) return false;
  }
  for (; i < last; ++i) {
    if (w[i] != ~uint64_t{0}) return false;
  }
  uint64_t tail = SpanMask(0, ((end - 1) & 63) + 1);
  return (w[last] & tail) == tail;
}

inline void ExtractWord(uint64_t word, uint32_t word_base,
                        std::vector<uint32_t>* out) {
  while (word != 0) {
    out->push_back(word_base + static_cast<uint32_t>(__builtin_ctzll(word)));
    word &= word - 1;
  }
}

void AppendSetBitsSse42(const uint64_t* w, size_t n, uint32_t base,
                        std::vector<uint32_t>* out) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    if (_mm_testz_si128(v, v)) continue;
    ExtractWord(w[i], base + static_cast<uint32_t>(i << 6), out);
    ExtractWord(w[i + 1], base + static_cast<uint32_t>((i + 1) << 6), out);
  }
  for (; i < n; ++i) {
    ExtractWord(w[i], base + static_cast<uint32_t>(i << 6), out);
  }
}

void AppendSetBitsInRangeSse42(const uint64_t* w, size_t begin, size_t end,
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
  for (; i + 2 <= last; i += 2) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    if (_mm_testz_si128(v, v)) continue;
    ExtractWord(w[i], static_cast<uint32_t>(i << 6), out);
    ExtractWord(w[i + 1], static_cast<uint32_t>((i + 1) << 6), out);
  }
  for (; i < last; ++i) {
    ExtractWord(w[i], static_cast<uint32_t>(i << 6), out);
  }
  ExtractWord(w[last] & SpanMask(0, ((end - 1) & 63) + 1),
              static_cast<uint32_t>(last << 6), out);
}

void AppendAndSetBitsSse42(const uint64_t* a, const uint64_t* b, size_t n,
                           std::vector<uint32_t>* out) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    if (_mm_testz_si128(va, vb)) continue;
    ExtractWord(a[i] & b[i], static_cast<uint32_t>(i << 6), out);
    ExtractWord(a[i + 1] & b[i + 1], static_cast<uint32_t>((i + 1) << 6),
                out);
  }
  for (; i < n; ++i) {
    ExtractWord(a[i] & b[i], static_cast<uint32_t>(i << 6), out);
  }
}

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
        t.b[m][out * 4 + byte] = 0x80;
      }
    }
  }
  return t;
}

constexpr ShuffleTable kShuffleTable = MakeShuffleTable();

size_t IntersectSortedU32Sse42(const uint32_t* a, size_t na, const uint32_t* b,
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
      // stores may have scribbled the retired prefix. Compacting only at
      // retirement keeps kept <= i at every store, so the 4-lane store's
      // scribble lanes never reach past the block being retired — the
      // invariant that makes out == a safe.
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

constexpr detail::KernelTable kSse42Table = {
    "sse4.2",
    &AndWordsSse42,
    &OrWordsSse42,
    &AndNotWordsSse42,
    &PopcountWordsSse42,
    &PopcountRangeSse42,
    &SetBitRangeSse42,
    &AnyInRangeSse42,
    &AllInRangeSse42,
    &AppendSetBitsSse42,
    &AppendSetBitsInRangeSse42,
    &AppendAndSetBitsSse42,
    &IntersectSortedU32Sse42,
};

}  // namespace

namespace detail {

const KernelTable* Sse42Table() {
  static const bool supported =
      __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("popcnt");
  return supported ? &kSse42Table : nullptr;
}

}  // namespace detail

}  // namespace bitops
}  // namespace lbr

#else  // !defined(__SSE4_2__)

namespace lbr {
namespace bitops {
namespace detail {

const KernelTable* Sse42Table() { return nullptr; }

}  // namespace detail
}  // namespace bitops
}  // namespace lbr

#endif  // defined(__SSE4_2__)
