// Randomized differential suite for the dispatched bitops kernels
// (DESIGN.md §8): every SIMD backend the build/CPU can run must agree
// bit-for-bit with the scalar table — the correctness oracle — for every
// entry of detail::KernelTable. Buffers sweep lengths 0..~513 bits so the
// vector paths see empty inputs, sub-block tails, exact block multiples,
// and multi-block bodies; range kernels additionally sweep unaligned heads
// and ragged tails inside the buffer. The suite runs in the ASan and TSan
// CI legs and under LBR_FORCE_SCALAR=1 (where it degenerates to
// scalar-vs-scalar, pinning that the force switch actually engaged).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/bitops.h"
#include "util/rng.h"

namespace lbr {
namespace bitops {
namespace {

// Backends that can run on this build + CPU, scalar always first (it is the
// oracle the others are compared against).
std::vector<KernelBackend> AvailableBackends() {
  std::vector<KernelBackend> backends;
  for (KernelBackend b : {KernelBackend::kScalar, KernelBackend::kSse42}) {
    if (KernelsFor(b) != nullptr) backends.push_back(b);
  }
  return backends;
}

// Random word buffer honoring the zero-tail invariant for `bits` bits.
// `density` tunes how often bits are set so the zero-block skip paths of
// the extraction kernels see both all-zero and mixed words.
std::vector<uint64_t> RandomWords(Rng* rng, size_t bits, double density) {
  std::vector<uint64_t> words(WordsFor(bits), 0);
  for (uint64_t& w : words) {
    if (rng->Chance(density)) {
      w = rng->Next();
    } else if (rng->Chance(0.3)) {
      w = rng->Chance(0.5) ? ~uint64_t{0} : 0;
    }
  }
  if (!words.empty()) words.back() &= TailMask(bits);
  return words;
}

// Sorted duplicate-free uint32 list with values in [0, universe).
std::vector<uint32_t> RandomSortedSet(Rng* rng, size_t max_len,
                                      uint32_t universe) {
  std::vector<uint32_t> vals;
  size_t len = rng->Uniform(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    vals.push_back(static_cast<uint32_t>(rng->Uniform(universe)));
  }
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

// Bit lengths covering empty input, single partial word, exact word/block
// boundaries (SSE 128-bit = 2 words, the 4-word unrolled body of the
// word-wise ops), off-by-ones around each, and a multi-block body.
const size_t kBitLengths[] = {0,   1,   7,   63,  64,  65,  127, 128, 129,
                              191, 192, 255, 256, 257, 320, 383, 384, 448,
                              511, 512, 513};

class SimdKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetKernelBackend(); }
};

TEST_F(SimdKernelTest, DispatchRespectsForceScalarEnv) {
  const char* forced = getenv("LBR_FORCE_SCALAR");
  if (forced != nullptr && forced[0] != '\0' &&
      std::string(forced) != "0") {
    EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
    EXPECT_STREQ(ActiveKernelName(), "scalar");
  }
  // ForceKernelBackend on an available backend must engage it; scalar is
  // always available.
  ASSERT_TRUE(ForceKernelBackend(KernelBackend::kScalar));
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  for (KernelBackend b : AvailableBackends()) {
    ASSERT_TRUE(ForceKernelBackend(b));
    EXPECT_EQ(ActiveKernelBackend(), b);
  }
}

// The startup selection must pick SSE4.2 whenever the CPU has it: it is the
// only vector tier (DESIGN.md §8).
TEST_F(SimdKernelTest, StartupSelectsSse42WhenCpuHasIt) {
  const char* forced = getenv("LBR_FORCE_SCALAR");
  if (forced != nullptr && forced[0] != '\0' &&
      std::string(forced) != "0") {
    GTEST_SKIP() << "LBR_FORCE_SCALAR pins the scalar table";
  }
#if defined(__x86_64__) || defined(__i386__)
  if (!__builtin_cpu_supports("sse4.2") || !__builtin_cpu_supports("popcnt")) {
    GTEST_SKIP() << "CPU lacks sse4.2 or popcnt";
  }
#else
  GTEST_SKIP() << "not an x86 host";
#endif
  ASSERT_TRUE(ForceKernelBackend(KernelBackend::kScalar));
  ResetKernelBackend();
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kSse42);
  EXPECT_STREQ(ActiveKernelName(), "sse4.2");
}

TEST_F(SimdKernelTest, WordwiseOpsMatchScalar) {
  const detail::KernelTable* scalar = KernelsFor(KernelBackend::kScalar);
  Rng rng(0xB17B175u);
  for (KernelBackend backend : AvailableBackends()) {
    const detail::KernelTable* simd = KernelsFor(backend);
    for (size_t bits : kBitLengths) {
      for (int rep = 0; rep < 8; ++rep) {
        double density = rng.NextDouble();
        std::vector<uint64_t> a = RandomWords(&rng, bits, density);
        std::vector<uint64_t> b = RandomWords(&rng, bits, density);
        size_t n = a.size();

        std::vector<uint64_t> want = a, got = a;
        scalar->and_words(want.data(), b.data(), n);
        simd->and_words(got.data(), b.data(), n);
        EXPECT_EQ(want, got) << simd->name << " and_words bits=" << bits;

        want = a;
        got = a;
        scalar->or_words(want.data(), b.data(), n);
        simd->or_words(got.data(), b.data(), n);
        EXPECT_EQ(want, got) << simd->name << " or_words bits=" << bits;

        want = a;
        got = a;
        scalar->andnot_words(want.data(), b.data(), n);
        simd->andnot_words(got.data(), b.data(), n);
        EXPECT_EQ(want, got) << simd->name << " andnot_words bits=" << bits;

        EXPECT_EQ(scalar->popcount_words(a.data(), n),
                  simd->popcount_words(a.data(), n))
            << simd->name << " popcount_words bits=" << bits;
      }
    }
  }
}

TEST_F(SimdKernelTest, RangeOpsMatchScalarOnRaggedRanges) {
  const detail::KernelTable* scalar = KernelsFor(KernelBackend::kScalar);
  Rng rng(0x4A66EDu);
  for (KernelBackend backend : AvailableBackends()) {
    const detail::KernelTable* simd = KernelsFor(backend);
    for (size_t bits : kBitLengths) {
      for (int rep = 0; rep < 12; ++rep) {
        std::vector<uint64_t> w = RandomWords(&rng, bits, rng.NextDouble());
        // Random half-open [begin, end) ⊆ [0, bits), including empty and
        // full ranges, unaligned heads, and ragged tails.
        size_t begin = bits == 0 ? 0 : rng.Uniform(bits + 1);
        size_t end = bits == 0 ? 0 : begin + rng.Uniform(bits + 1 - begin);
        if (rep == 0) {
          begin = 0;
          end = bits;
        }

        EXPECT_EQ(scalar->popcount_range(w.data(), begin, end),
                  simd->popcount_range(w.data(), begin, end))
            << simd->name << " popcount_range bits=" << bits << " ["
            << begin << "," << end << ")";
        EXPECT_EQ(scalar->any_in_range(w.data(), begin, end),
                  simd->any_in_range(w.data(), begin, end))
            << simd->name << " any_in_range bits=" << bits << " [" << begin
            << "," << end << ")";
        EXPECT_EQ(scalar->all_in_range(w.data(), begin, end),
                  simd->all_in_range(w.data(), begin, end))
            << simd->name << " all_in_range bits=" << bits << " [" << begin
            << "," << end << ")";

        std::vector<uint64_t> want = w, got = w;
        scalar->set_bit_range(want.data(), begin, end);
        simd->set_bit_range(got.data(), begin, end);
        EXPECT_EQ(want, got) << simd->name << " set_bit_range bits=" << bits
                             << " [" << begin << "," << end << ")";

        // Dense and all-ones inputs push all_in_range past its early exit.
        std::vector<uint64_t> ones(w.size(), ~uint64_t{0});
        if (!ones.empty()) ones.back() &= TailMask(bits);
        EXPECT_EQ(scalar->all_in_range(ones.data(), begin, end),
                  simd->all_in_range(ones.data(), begin, end))
            << simd->name << " all_in_range(ones) bits=" << bits;
      }
    }
  }
}

TEST_F(SimdKernelTest, ExtractionOpsMatchScalar) {
  const detail::KernelTable* scalar = KernelsFor(KernelBackend::kScalar);
  Rng rng(0xE17AC7u);
  for (KernelBackend backend : AvailableBackends()) {
    const detail::KernelTable* simd = KernelsFor(backend);
    for (size_t bits : kBitLengths) {
      for (int rep = 0; rep < 8; ++rep) {
        // Sparse densities exercise the testz zero-block skip; dense ones
        // the extraction loop proper.
        double density = rep < 4 ? 0.1 : rng.NextDouble();
        std::vector<uint64_t> a = RandomWords(&rng, bits, density);
        std::vector<uint64_t> b = RandomWords(&rng, bits, density);
        size_t n = a.size();
        uint32_t base = static_cast<uint32_t>(rng.Uniform(1 << 20));

        std::vector<uint32_t> want, got;
        want.assign({0xDEADu});  // non-empty: append must preserve prefix
        got.assign({0xDEADu});
        scalar->append_set_bits(a.data(), n, base, &want);
        simd->append_set_bits(a.data(), n, base, &got);
        EXPECT_EQ(want, got) << simd->name << " append_set_bits bits=" << bits;

        size_t begin = bits == 0 ? 0 : rng.Uniform(bits + 1);
        size_t end = bits == 0 ? 0 : begin + rng.Uniform(bits + 1 - begin);
        want.clear();
        got.clear();
        scalar->append_set_bits_in_range(a.data(), begin, end, &want);
        simd->append_set_bits_in_range(a.data(), begin, end, &got);
        EXPECT_EQ(want, got) << simd->name << " append_set_bits_in_range bits="
                             << bits << " [" << begin << "," << end << ")";

        want.clear();
        got.clear();
        scalar->append_and_set_bits(a.data(), b.data(), n, &want);
        simd->append_and_set_bits(a.data(), b.data(), n, &got);
        EXPECT_EQ(want, got) << simd->name << " append_and_set_bits bits="
                             << bits;
      }
    }
  }
}

TEST_F(SimdKernelTest, IntersectSortedU32MatchesScalar) {
  const detail::KernelTable* scalar = KernelsFor(KernelBackend::kScalar);
  Rng rng(0x5E7Au);
  for (KernelBackend backend : AvailableBackends()) {
    const detail::KernelTable* simd = KernelsFor(backend);
    for (int rep = 0; rep < 200; ++rep) {
      // Small universes force dense overlaps; large ones sparse or empty
      // intersections. Lengths sweep 0..~513 to cover the 4-lane blocks,
      // their tails, and the scalar fallback for tiny inputs.
      uint32_t universe =
          rep % 3 == 0 ? 64 : static_cast<uint32_t>(rng.Range(1, 1 << 16));
      std::vector<uint32_t> a = RandomSortedSet(&rng, 513, universe);
      std::vector<uint32_t> b = RandomSortedSet(&rng, 513, universe);

      std::vector<uint32_t> want(std::min(a.size(), b.size()) + 4);
      size_t want_n = scalar->intersect_sorted_u32(
          a.data(), a.size(), b.data(), b.size(), want.data());
      std::vector<uint32_t> got(want.size());
      size_t got_n = simd->intersect_sorted_u32(a.data(), a.size(), b.data(),
                                                b.size(), got.data());
      ASSERT_EQ(want_n, got_n) << simd->name << " rep=" << rep;
      // Only the first `count` slots are the contract; later slots may be
      // scribbled by whole-block stores.
      EXPECT_TRUE(std::equal(want.begin(), want.begin() + want_n, got.begin()))
          << simd->name << " rep=" << rep;

      // In-place form (out == a), the CompressedRow usage.
      std::vector<uint32_t> in_place = a;
      size_t ip_n = simd->intersect_sorted_u32(
          in_place.data(), in_place.size(), b.data(), b.size(),
          in_place.data());
      ASSERT_EQ(want_n, ip_n) << simd->name << " in-place rep=" << rep;
      EXPECT_TRUE(
          std::equal(want.begin(), want.begin() + want_n, in_place.begin()))
          << simd->name << " in-place rep=" << rep;
    }
  }
}

TEST_F(SimdKernelTest, DispatchedWrappersFollowForcedBackend) {
  // The public inline wrappers must route through whatever table is forced —
  // a smoke check that g_active is actually consulted per call.
  Rng rng(0xD15Cu);
  std::vector<uint64_t> a = RandomWords(&rng, 300, 0.5);
  std::vector<uint64_t> b = RandomWords(&rng, 300, 0.5);
  uint64_t scalar_count = 0;
  ASSERT_TRUE(ForceKernelBackend(KernelBackend::kScalar));
  scalar_count = PopcountWords(a.data(), a.size());
  for (KernelBackend backend : AvailableBackends()) {
    ASSERT_TRUE(ForceKernelBackend(backend));
    EXPECT_EQ(ActiveKernelBackend(), backend);
    EXPECT_EQ(PopcountWords(a.data(), a.size()), scalar_count);
    std::vector<uint64_t> dst = a;
    AndWords(dst.data(), b.data(), dst.size());
    std::vector<uint32_t> positions;
    AppendAndSetBits(a.data(), b.data(), a.size(), &positions);
    std::vector<uint32_t> check;
    AppendSetBits(dst.data(), dst.size(), 0, &check);
    EXPECT_EQ(positions, check) << "backend " << static_cast<int>(backend);
  }
}

}  // namespace
}  // namespace bitops
}  // namespace lbr
