#include "util/bitops.h"

#include <cstdlib>

#include "util/bitops_internal.h"

namespace lbr {
namespace bitops {

// ---------------------------------------------------------------------------
// Scalar kernels — the portable fallback and the correctness oracle for the
// SIMD paths (tests/simd_kernel_test pins every backend against these).
// ---------------------------------------------------------------------------

namespace {

using detail::SpanMask;

void AndWordsScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void OrWordsScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void AndNotWordsScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

uint64_t PopcountWordsScalar(const uint64_t* w, size_t n) {
  uint64_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    c += static_cast<uint64_t>(__builtin_popcountll(w[i]));
  }
  return c;
}

void SetBitRangeScalar(uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    w[first] |= SpanMask(begin & 63, ((end - 1) & 63) + 1);
    return;
  }
  w[first] |= SpanMask(begin & 63, 64);
  for (size_t i = first + 1; i < last; ++i) w[i] = ~uint64_t{0};
  w[last] |= SpanMask(0, ((end - 1) & 63) + 1);
}

bool AnyInRangeScalar(const uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return false;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    return (w[first] & SpanMask(begin & 63, ((end - 1) & 63) + 1)) != 0;
  }
  if ((w[first] & SpanMask(begin & 63, 64)) != 0) return true;
  for (size_t i = first + 1; i < last; ++i) {
    if (w[i] != 0) return true;
  }
  return (w[last] & SpanMask(0, ((end - 1) & 63) + 1)) != 0;
}

bool AllInRangeScalar(const uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return true;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    uint64_t span = SpanMask(begin & 63, ((end - 1) & 63) + 1);
    return (w[first] & span) == span;
  }
  uint64_t head = SpanMask(begin & 63, 64);
  if ((w[first] & head) != head) return false;
  for (size_t i = first + 1; i < last; ++i) {
    if (w[i] != ~uint64_t{0}) return false;
  }
  uint64_t tail = SpanMask(0, ((end - 1) & 63) + 1);
  return (w[last] & tail) == tail;
}

uint64_t PopcountRangeScalar(const uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return 0;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    return static_cast<uint64_t>(__builtin_popcountll(
        w[first] & SpanMask(begin & 63, ((end - 1) & 63) + 1)));
  }
  uint64_t c = static_cast<uint64_t>(
      __builtin_popcountll(w[first] & SpanMask(begin & 63, 64)));
  for (size_t i = first + 1; i < last; ++i) {
    c += static_cast<uint64_t>(__builtin_popcountll(w[i]));
  }
  c += static_cast<uint64_t>(
      __builtin_popcountll(w[last] & SpanMask(0, ((end - 1) & 63) + 1)));
  return c;
}

void AppendSetBitsScalar(const uint64_t* w, size_t n, uint32_t base,
                         std::vector<uint32_t>* out) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t word = w[i];
    uint32_t word_base = base + static_cast<uint32_t>(i << 6);
    while (word != 0) {
      out->push_back(word_base +
                     static_cast<uint32_t>(__builtin_ctzll(word)));
      word &= word - 1;
    }
  }
}

void AppendSetBitsInRangeScalar(const uint64_t* w, size_t begin, size_t end,
                                std::vector<uint32_t>* out) {
  if (begin >= end) return;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  for (size_t i = first; i <= last; ++i) {
    uint64_t word = w[i];
    if (i == first) word &= SpanMask(begin & 63, 64);
    if (i == last) word &= SpanMask(0, ((end - 1) & 63) + 1);
    uint32_t word_base = static_cast<uint32_t>(i << 6);
    while (word != 0) {
      out->push_back(word_base +
                     static_cast<uint32_t>(__builtin_ctzll(word)));
      word &= word - 1;
    }
  }
}

void AppendAndSetBitsScalar(const uint64_t* a, const uint64_t* b, size_t n,
                            std::vector<uint32_t>* out) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t word = a[i] & b[i];
    uint32_t word_base = static_cast<uint32_t>(i << 6);
    while (word != 0) {
      out->push_back(word_base +
                     static_cast<uint32_t>(__builtin_ctzll(word)));
      word &= word - 1;
    }
  }
}

size_t IntersectSortedU32Scalar(const uint32_t* a, size_t na,
                                const uint32_t* b, size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, kept = 0;
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

constexpr detail::KernelTable kScalarTable = {
    "scalar",
    &AndWordsScalar,
    &OrWordsScalar,
    &AndNotWordsScalar,
    &PopcountWordsScalar,
    &PopcountRangeScalar,
    &SetBitRangeScalar,
    &AnyInRangeScalar,
    &AllInRangeScalar,
    &AppendSetBitsScalar,
    &AppendSetBitsInRangeScalar,
    &AppendAndSetBitsScalar,
    &IntersectSortedU32Scalar,
};

/// True when LBR_FORCE_SCALAR pins the fallback (any non-empty value other
/// than "0").
bool ForcedScalarByEnv() {
  const char* v = std::getenv("LBR_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// Startup selection: SSE4.2 unless the environment pins scalar.
/// Sse42Table() checks CPUID itself and returns nullptr when its TU was
/// built without the ISA or the host lacks it, so a binary built with
/// SSE4.2 kernels still runs, on the scalar path, on a machine without
/// them.
const detail::KernelTable* SelectTable() {
  if (ForcedScalarByEnv()) return &kScalarTable;
  if (const detail::KernelTable* t = detail::Sse42Table()) return t;
  return &kScalarTable;
}

/// Runs the selection during static initialization, before main and before
/// any threads exist. g_active's constant initializer (the scalar table)
/// covers callers that run even earlier.
struct StartupSelector {
  StartupSelector() {
    detail::g_active.store(SelectTable(), std::memory_order_relaxed);
  }
} g_startup_selector;

}  // namespace

namespace detail {

std::atomic<const KernelTable*> g_active{&kScalarTable};

const KernelTable* ScalarTable() { return &kScalarTable; }

}  // namespace detail

const detail::KernelTable* KernelsFor(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return &kScalarTable;
    case KernelBackend::kSse42:
      return detail::Sse42Table();
  }
  return nullptr;
}

KernelBackend ActiveKernelBackend() {
  const detail::KernelTable* active = &detail::Active();
  return active == detail::Sse42Table() ? KernelBackend::kSse42
                                        : KernelBackend::kScalar;
}

const char* ActiveKernelName() { return detail::Active().name; }

bool ForceKernelBackend(KernelBackend backend) {
  const detail::KernelTable* table = KernelsFor(backend);
  if (table == nullptr) return false;
  detail::g_active.store(table, std::memory_order_relaxed);
  return true;
}

void ResetKernelBackend() {
  detail::g_active.store(SelectTable(), std::memory_order_relaxed);
}

void ClearBitRange(uint64_t* w, size_t begin, size_t end) {
  if (begin >= end) return;
  size_t first = begin >> 6;
  size_t last = (end - 1) >> 6;
  if (first == last) {
    w[first] &= ~detail::SpanMask(begin & 63, ((end - 1) & 63) + 1);
    return;
  }
  w[first] &= ~detail::SpanMask(begin & 63, 64);
  for (size_t i = first + 1; i < last; ++i) w[i] = 0;
  w[last] &= ~detail::SpanMask(0, ((end - 1) & 63) + 1);
}

}  // namespace bitops
}  // namespace lbr
