#include "util/compressed_row.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace lbr {
namespace {

CompressedRow FromBits(const std::vector<uint32_t>& positions) {
  return CompressedRow::FromPositions(positions);
}

TEST(CompressedRowTest, EmptyRow) {
  CompressedRow r;
  EXPECT_TRUE(r.IsEmpty());
  EXPECT_EQ(r.Count(), 0u);
  EXPECT_FALSE(r.Test(0));
  EXPECT_EQ(r.encoding(), CompressedRow::Encoding::kEmpty);
}

TEST(CompressedRowTest, DenseRowUsesRuns) {
  // "1110011110": 7 set bits in 2 runs — RLE is smaller than positions.
  CompressedRow r = FromBits({0, 1, 2, 5, 6, 7, 8});
  EXPECT_EQ(r.encoding(), CompressedRow::Encoding::kRuns);
  EXPECT_EQ(r.Count(), 7u);
  EXPECT_EQ(r.SetBits(), (std::vector<uint32_t>{0, 1, 2, 5, 6, 7, 8}));
}

TEST(CompressedRowTest, SparseRowUsesPositions) {
  // "0010010000": RLE needs more integers than the 2 set bits, so the
  // hybrid stores positions — the paper's motivating case for the hybrid.
  CompressedRow r = FromBits({2, 5});
  EXPECT_EQ(r.encoding(), CompressedRow::Encoding::kPositions);
  EXPECT_EQ(r.PayloadInts(), 2u);
  CompressedRow rle = CompressedRow::RleOnlyFromPositions({2, 5});
  EXPECT_EQ(rle.encoding(), CompressedRow::Encoding::kRuns);
  EXPECT_GT(rle.PayloadInts(), r.PayloadInts());
  EXPECT_EQ(rle.SetBits(), r.SetBits());
}

TEST(CompressedRowTest, TestBit) {
  CompressedRow r = FromBits({3, 6, 100, 101, 102});
  for (uint32_t p : {3u, 6u, 100u, 101u, 102u}) EXPECT_TRUE(r.Test(p));
  for (uint32_t p : {0u, 4u, 99u, 103u, 100000u}) EXPECT_FALSE(r.Test(p));
}

TEST(CompressedRowTest, OrInto) {
  Bitvector acc(128);
  acc.Set(1);
  FromBits({0, 64, 127}).OrInto(&acc);
  EXPECT_EQ(acc.SetBits(), (std::vector<uint32_t>{0, 1, 64, 127}));
}

TEST(CompressedRowTest, AndWithMask) {
  CompressedRow r = FromBits({1, 5, 9, 64, 70});
  Bitvector mask(128);
  mask.Set(5);
  mask.Set(64);
  mask.Set(100);
  CompressedRow masked = r.AndWith(mask);
  EXPECT_EQ(masked.SetBits(), (std::vector<uint32_t>{5, 64}));
}

TEST(CompressedRowTest, AndWithShortMaskDropsOutOfRange) {
  CompressedRow r = FromBits({1, 200});
  Bitvector mask(100, true);
  CompressedRow masked = r.AndWith(mask);
  EXPECT_EQ(masked.SetBits(), (std::vector<uint32_t>{1}));
}

TEST(CompressedRowTest, IntersectsWith) {
  CompressedRow r = FromBits({10, 20, 30});
  Bitvector mask(64);
  EXPECT_FALSE(r.IntersectsWith(mask));
  mask.Set(20);
  EXPECT_TRUE(r.IntersectsWith(mask));
  Bitvector small(5, true);
  EXPECT_FALSE(r.IntersectsWith(small));
}

TEST(CompressedRowTest, IsSubsetOf) {
  EXPECT_TRUE(CompressedRow().IsSubsetOf(Bitvector(8)));  // empty row

  CompressedRow r = FromBits({10, 20, 30});
  Bitvector mask(64);
  EXPECT_FALSE(r.IsSubsetOf(mask));
  mask.Set(10);
  mask.Set(20);
  EXPECT_FALSE(r.IsSubsetOf(mask));  // 30 missing
  mask.Set(30);
  EXPECT_TRUE(r.IsSubsetOf(mask));
  // Bits at positions past the mask's size count as dropped.
  Bitvector short_mask(25, true);
  EXPECT_FALSE(r.IsSubsetOf(short_mask));
  // Agreement with AndWith: subset iff the AND drops nothing.
  EXPECT_EQ(r.IsSubsetOf(mask), r.AndWith(mask).Count() == r.Count());
}

TEST(CompressedRowTest, RoundTripThroughBitvector) {
  Bitvector bits(500);
  for (size_t i = 0; i < 500; i += 7) bits.Set(i);
  CompressedRow r = CompressedRow::FromBitvector(bits);
  Bitvector back(500);
  r.OrInto(&back);
  EXPECT_EQ(back, bits);
}

TEST(CompressedRowTest, HybridNeverLargerThanRle) {
  Rng rng(3);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<uint32_t> positions;
    uint32_t pos = 0;
    int n = 1 + static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < n; ++i) {
      pos += 1 + static_cast<uint32_t>(rng.Uniform(20));
      positions.push_back(pos);
    }
    CompressedRow hybrid = FromBits(positions);
    CompressedRow rle = CompressedRow::RleOnlyFromPositions(positions);
    EXPECT_LE(hybrid.PayloadInts(), rle.PayloadInts());
    EXPECT_EQ(hybrid.SetBits(), rle.SetBits());
  }
}

TEST(CompressedRowTest, SingleLeadingBit) {
  CompressedRow r = FromBits({0});
  EXPECT_EQ(r.Count(), 1u);
  EXPECT_TRUE(r.Test(0));
  EXPECT_FALSE(r.Test(1));
}

// --- kRuns-encoding paths: long runs, word-boundary crossings, the hybrid
// crossover, and in-place ops vs their copying counterparts.

std::vector<uint32_t> RangePositions(uint32_t begin, uint32_t end) {
  std::vector<uint32_t> out;
  for (uint32_t i = begin; i < end; ++i) out.push_back(i);
  return out;
}

TEST(CompressedRowRunsTest, LongRunOrIntoCrossesWords) {
  // One 1-run of 300 bits starting mid-word: SetRange must fill partial
  // head/tail words and whole middle words.
  CompressedRow r = FromBits(RangePositions(50, 350));
  ASSERT_EQ(r.encoding(), CompressedRow::Encoding::kRuns);
  Bitvector acc(512);
  acc.Set(0);
  r.OrInto(&acc);
  EXPECT_EQ(acc.Count(), 301u);
  EXPECT_TRUE(acc.Get(0));
  EXPECT_FALSE(acc.Get(49));
  EXPECT_TRUE(acc.Get(50));
  EXPECT_TRUE(acc.Get(349));
  EXPECT_FALSE(acc.Get(350));
}

TEST(CompressedRowRunsTest, LongRunAndWithMask) {
  CompressedRow r = FromBits(RangePositions(10, 500));
  ASSERT_EQ(r.encoding(), CompressedRow::Encoding::kRuns);
  Bitvector mask(512);
  for (size_t i = 0; i < 512; i += 64) mask.Set(i);  // one bit per word
  CompressedRow masked = r.AndWith(mask);
  EXPECT_EQ(masked.SetBits(),
            (std::vector<uint32_t>{64, 128, 192, 256, 320, 384, 448}));
}

TEST(CompressedRowRunsTest, IsSubsetOfRunRows) {
  CompressedRow r = FromBits(RangePositions(100, 400));
  ASSERT_EQ(r.encoding(), CompressedRow::Encoding::kRuns);
  Bitvector full(512, true);
  EXPECT_TRUE(r.IsSubsetOf(full));
  Bitvector holed = full;
  holed.Set(250, false);  // hole mid-run
  EXPECT_FALSE(r.IsSubsetOf(holed));
  Bitvector edge = full;
  edge.Set(399, false);  // last bit of the run
  EXPECT_FALSE(r.IsSubsetOf(edge));
  // Mask ending inside the run: the tail of the run is dropped.
  Bitvector partial(150, true);
  EXPECT_FALSE(r.IsSubsetOf(partial));
  // Exactly covering mask.
  Bitvector exact(400, true);
  EXPECT_TRUE(r.IsSubsetOf(exact));
}

TEST(CompressedRowRunsTest, LongRunIntersectsWithEarlyExit) {
  CompressedRow r = FromBits(RangePositions(100, 400));
  ASSERT_EQ(r.encoding(), CompressedRow::Encoding::kRuns);
  Bitvector mask(512);
  EXPECT_FALSE(r.IntersectsWith(mask));
  mask.Set(399);  // last bit of the run
  EXPECT_TRUE(r.IntersectsWith(mask));
  Bitvector before_run(512);
  before_run.Set(99);
  EXPECT_FALSE(r.IntersectsWith(before_run));
  // Mask shorter than the run start: nothing can intersect.
  Bitvector short_mask(100, true);
  EXPECT_FALSE(r.IntersectsWith(short_mask));
  // Mask ending inside the run.
  Bitvector partial(150, true);
  EXPECT_TRUE(r.IntersectsWith(partial));
}

TEST(CompressedRowRunsTest, MultiRunRowAgainstWordAlignedMask) {
  // Three 1-runs separated by 0-gaps, spanning several words.
  std::vector<uint32_t> positions;
  for (uint32_t p : RangePositions(0, 70)) positions.push_back(p);
  for (uint32_t p : RangePositions(128, 140)) positions.push_back(p);
  for (uint32_t p : RangePositions(200, 260)) positions.push_back(p);
  CompressedRow r = FromBits(positions);
  ASSERT_EQ(r.encoding(), CompressedRow::Encoding::kRuns);
  Bitvector mask(256);
  mask.SetRange(64, 129);
  CompressedRow masked = r.AndWith(mask);
  std::vector<uint32_t> want;
  for (uint32_t p : positions) {
    if (p >= 64 && p < 129 && p < 256) want.push_back(p);
  }
  EXPECT_EQ(masked.SetBits(), want);
  EXPECT_TRUE(r.IntersectsWith(mask));
}

TEST(CompressedRowRunsTest, HybridCrossoverBoundary) {
  // {1,2}: 2 positions vs 2 run ints — a tie keeps the RLE encoding.
  CompressedRow tie = FromBits({1, 2});
  EXPECT_EQ(tie.encoding(), CompressedRow::Encoding::kRuns);
  EXPECT_EQ(tie.PayloadInts(), 2u);
  // {1,3}: 2 positions vs 4 run ints — positions win.
  CompressedRow sparse = FromBits({1, 3});
  EXPECT_EQ(sparse.encoding(), CompressedRow::Encoding::kPositions);
  EXPECT_EQ(sparse.PayloadInts(), 2u);
  // Both still answer identically.
  for (uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(tie.Test(p), p == 1 || p == 2);
    EXPECT_EQ(sparse.Test(p), p == 1 || p == 3);
  }
}

TEST(CompressedRowRunsTest, AndWithInPlaceMatchesAndWith) {
  Rng rng(17);
  std::vector<uint32_t> scratch;
  for (int iter = 0; iter < 40; ++iter) {
    // Mix of dense run segments and sparse singles so both encodings and
    // the crossover get exercised.
    std::vector<uint32_t> positions;
    uint32_t pos = 0;
    while (pos < 600) {
      if (rng.Chance(0.3)) {
        uint32_t len = 1 + static_cast<uint32_t>(rng.Uniform(80));
        for (uint32_t i = 0; i < len && pos + i < 600; ++i) {
          positions.push_back(pos + i);
        }
        pos += len;
      }
      pos += 1 + static_cast<uint32_t>(rng.Uniform(40));
    }
    CompressedRow row = FromBits(positions);
    Bitvector mask(640);
    for (size_t i = 0; i < 640; ++i) {
      if (rng.Chance(0.4)) mask.Set(i);
    }
    CompressedRow copied = row.AndWith(mask);
    CompressedRow in_place = row;
    in_place.AndWithInPlace(mask, &scratch);
    // Canonical encodings: the two must be identical, not just set-equal.
    EXPECT_EQ(in_place, copied);
    EXPECT_EQ(in_place.Count(), copied.Count());
  }
}

TEST(CompressedRowRunsTest, AndWithInPlaceFullSurvivalKeepsEncoding) {
  CompressedRow r = FromBits(RangePositions(0, 100));
  ASSERT_EQ(r.encoding(), CompressedRow::Encoding::kRuns);
  Bitvector all(128, true);
  CompressedRow before = r;
  r.AndWithInPlace(all);
  EXPECT_EQ(r, before);
}

TEST(CompressedRowRunsTest, AndWithInPlaceToEmpty) {
  CompressedRow r = FromBits(RangePositions(10, 90));
  Bitvector none(128);
  r.AndWithInPlace(none);
  EXPECT_TRUE(r.IsEmpty());
  EXPECT_EQ(r.Count(), 0u);
  EXPECT_EQ(r, CompressedRow());
}

TEST(CompressedRowRunsTest, AndWithInPlaceMatchesAndWithAcrossRuns) {
  // A mask that cuts through a long run and keeps one of two sparse tail
  // bits: masking in place must equal the copying AndWith's result.
  std::vector<uint32_t> positions;
  for (uint32_t p : RangePositions(0, 200)) positions.push_back(p);
  positions.push_back(400);
  positions.push_back(500);
  CompressedRow row = FromBits(positions);
  Bitvector mask(512);
  mask.SetRange(100, 450);
  CompressedRow in_place = row;
  in_place.AndWithInPlace(mask);
  EXPECT_EQ(in_place, row.AndWith(mask));
  EXPECT_EQ(in_place.SetBits(), row.AndWith(mask).SetBits());
}

// Parameterized sweep: random rows agree with an uncompressed reference on
// every operation.
class CompressedRowSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressedRowSweep, OperationsAgreeWithBitvector) {
  Rng rng(GetParam());
  const size_t width = 300;
  Bitvector reference(width);
  std::vector<uint32_t> positions;
  for (size_t i = 0; i < width; ++i) {
    if (rng.Chance(0.2)) {
      reference.Set(i);
      positions.push_back(static_cast<uint32_t>(i));
    }
  }
  CompressedRow row = FromBits(positions);
  EXPECT_EQ(row.Count(), reference.Count());
  for (size_t i = 0; i < width; ++i) {
    EXPECT_EQ(row.Test(static_cast<uint32_t>(i)), reference.Get(i)) << i;
  }
  Bitvector mask(width);
  for (size_t i = 0; i < width; ++i) {
    if (rng.Chance(0.5)) mask.Set(i);
  }
  Bitvector expected = reference;
  expected.And(mask);
  EXPECT_EQ(row.AndWith(mask).SetBits(), expected.SetBits());
  EXPECT_EQ(row.IntersectsWith(mask), !expected.None());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressedRowSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CompressedRowTest, IntersectSortedPositionsBasics) {
  std::vector<uint32_t> cands = {1, 5, 64, 65, 130, 400};
  CompressedRow empty;
  std::vector<uint32_t> v = cands;
  empty.IntersectSortedPositions(&v);
  EXPECT_TRUE(v.empty());

  CompressedRow sparse = FromBits({5, 65, 200});  // kPositions
  v = cands;
  sparse.IntersectSortedPositions(&v);
  EXPECT_EQ(v, (std::vector<uint32_t>{5, 65}));

  CompressedRow dense = FromBits({0, 1, 2, 3, 4, 5, 64, 65, 66, 67});
  ASSERT_EQ(dense.encoding(), CompressedRow::Encoding::kRuns);
  v = cands;
  dense.IntersectSortedPositions(&v);
  EXPECT_EQ(v, (std::vector<uint32_t>{1, 5, 64, 65}));
}

// Property sweep: IntersectSortedPositions equals the per-candidate Test
// model on random rows and candidate lists for both encodings.
class IntersectSortedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntersectSortedSweep, MatchesTestModel) {
  Rng rng(GetParam());
  const uint32_t width = 300;
  for (double density : {0.03, 0.4, 0.9}) {
    std::vector<uint32_t> row_bits;
    for (uint32_t i = 0; i < width; ++i) {
      if (rng.Chance(density)) row_bits.push_back(i);
    }
    CompressedRow row = FromBits(row_bits);
    std::vector<uint32_t> cands;
    for (uint32_t i = 0; i < width + 50; ++i) {  // some past the row's end
      if (rng.Chance(0.3)) cands.push_back(i);
    }
    std::vector<uint32_t> expected;
    for (uint32_t p : cands) {
      if (row.Test(p)) expected.push_back(p);
    }
    row.IntersectSortedPositions(&cands);
    EXPECT_EQ(cands, expected) << "density " << density;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectSortedSweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

}  // namespace
}  // namespace lbr
