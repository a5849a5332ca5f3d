#include "bitmat/bitmat.h"

#include <gtest/gtest.h>

namespace lbr {
namespace {

BitMat SampleBitMat() {
  // 4x6 matrix:
  // row 0: bits 1, 3
  // row 1: (empty)
  // row 2: bits 0, 1, 2
  // row 3: bit 5
  BitMat bm(4, 6);
  bm.SetRow(0, {1, 3});
  bm.SetRow(2, {0, 1, 2});
  bm.SetRow(3, {5});
  return bm;
}

TEST(BitMatTest, CountsAndTest) {
  BitMat bm = SampleBitMat();
  EXPECT_EQ(bm.Count(), 6u);
  EXPECT_FALSE(bm.IsEmpty());
  EXPECT_TRUE(bm.Test(0, 1));
  EXPECT_FALSE(bm.Test(0, 2));
  EXPECT_FALSE(bm.Test(1, 0));
  EXPECT_TRUE(bm.Test(3, 5));
  EXPECT_FALSE(bm.Test(99, 0));  // row out of range is safe
  EXPECT_FALSE(bm.Test(0, 6));   // column out of range is safe too
  EXPECT_FALSE(bm.Test(0, 99));
  EXPECT_FALSE(bm.Test(99, 99));
}

TEST(BitMatTest, FoldIntoReusesBuffer) {
  BitMat bm = SampleBitMat();
  Bitvector out(1000, true);  // stale contents + larger size
  bm.FoldInto(Dim::kCol, &out);
  EXPECT_EQ(out.size(), 6u);
  EXPECT_EQ(out.SetBits(), (std::vector<uint32_t>{0, 1, 2, 3, 5}));
  bm.FoldInto(Dim::kRow, &out);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out.SetBits(), (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(out, bm.NonEmptyRows());
}

TEST(BitMatTest, UnfoldWithContextMatchesWithout) {
  ExecContext ctx;
  Bitvector mask(6);
  mask.Set(1);
  mask.Set(5);
  BitMat plain = SampleBitMat();
  plain.Unfold(mask, Dim::kCol);
  BitMat pooled = SampleBitMat();
  pooled.Unfold(mask, Dim::kCol, &ctx);
  EXPECT_EQ(plain, pooled);
  EXPECT_EQ(pooled.Count(), 3u);  // bits (0,1), (2,1), (3,5)
  EXPECT_EQ(pooled.NonEmptyRows().SetBits(),
            (std::vector<uint32_t>{0, 2, 3}));
}

TEST(BitMatTest, FoldRowIsNonEmptyRows) {
  BitMat bm = SampleBitMat();
  Bitvector rows = bm.Fold(Dim::kRow);
  EXPECT_EQ(rows.SetBits(), (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(rows, bm.NonEmptyRows());
}

TEST(BitMatTest, FoldColIsOrOfRows) {
  BitMat bm = SampleBitMat();
  Bitvector cols = bm.Fold(Dim::kCol);
  EXPECT_EQ(cols.SetBits(), (std::vector<uint32_t>{0, 1, 2, 3, 5}));
}

TEST(BitMatTest, UnfoldRowClearsRows) {
  BitMat bm = SampleBitMat();
  Bitvector mask(4);
  mask.Set(0);
  mask.Set(3);
  bm.Unfold(mask, Dim::kRow);
  EXPECT_EQ(bm.Count(), 3u);  // row 0 (2 bits) + row 3 (1 bit)
  EXPECT_TRUE(bm.Row(2).IsEmpty());
  EXPECT_EQ(bm.NonEmptyRows().SetBits(), (std::vector<uint32_t>{0, 3}));
}

TEST(BitMatTest, UnfoldColMasksEveryRow) {
  BitMat bm = SampleBitMat();
  Bitvector mask(6);
  mask.Set(1);
  bm.Unfold(mask, Dim::kCol);
  EXPECT_EQ(bm.Count(), 2u);  // (0,1) and (2,1)
  EXPECT_TRUE(bm.Test(0, 1));
  EXPECT_TRUE(bm.Test(2, 1));
  EXPECT_TRUE(bm.Row(3).IsEmpty());
  EXPECT_EQ(bm.NonEmptyRows().SetBits(), (std::vector<uint32_t>{0, 2}));
}

TEST(BitMatTest, FoldUnfoldIdentity) {
  // Unfolding with a full mask is a no-op; unfolding with the fold result
  // is a no-op.
  BitMat bm = SampleBitMat();
  BitMat copy = bm;
  bm.Unfold(bm.Fold(Dim::kCol), Dim::kCol);
  bm.Unfold(bm.Fold(Dim::kRow), Dim::kRow);
  EXPECT_EQ(bm, copy);
}

TEST(BitMatTest, TransposeFlipsCoordinates) {
  BitMat bm = SampleBitMat();
  BitMat t = bm.Transposed();
  EXPECT_EQ(t.num_rows(), 6u);
  EXPECT_EQ(t.num_cols(), 4u);
  EXPECT_EQ(t.Count(), bm.Count());
  bm.ForEachBit([&t](uint32_t r, uint32_t c) { EXPECT_TRUE(t.Test(c, r)); });
  // Double transpose is the identity.
  EXPECT_EQ(t.Transposed(), bm);
}

TEST(BitMatTest, ForEachBitRowMajor) {
  BitMat bm = SampleBitMat();
  std::vector<std::pair<uint32_t, uint32_t>> got;
  bm.ForEachBit([&got](uint32_t r, uint32_t c) { got.emplace_back(r, c); });
  std::vector<std::pair<uint32_t, uint32_t>> expected{
      {0, 1}, {0, 3}, {2, 0}, {2, 1}, {2, 2}, {3, 5}};
  EXPECT_EQ(got, expected);
}

TEST(BitMatTest, SetRowReplacesAndUpdatesCount) {
  BitMat bm(2, 8);
  bm.SetRow(0, {1, 2, 3});
  EXPECT_EQ(bm.Count(), 3u);
  bm.SetRow(0, {7});
  EXPECT_EQ(bm.Count(), 1u);
  bm.SetRow(0, CompressedRow());
  EXPECT_EQ(bm.Count(), 0u);
  EXPECT_TRUE(bm.IsEmpty());
  EXPECT_TRUE(bm.NonEmptyRows().None());
}

TEST(BitMatTest, EmptyMatrix) {
  BitMat bm(0, 0);
  EXPECT_TRUE(bm.IsEmpty());
  EXPECT_EQ(bm.Fold(Dim::kCol).size(), 0u);
}

TEST(BitMatTest, PayloadBytesTracksCompression) {
  BitMat bm(2, 1000);
  std::vector<uint32_t> dense;
  for (uint32_t i = 0; i < 500; ++i) dense.push_back(i);
  bm.SetRow(0, dense);       // one long run: tiny payload
  bm.SetRow(1, {17, 800});   // sparse: positions
  EXPECT_GT(bm.PayloadBytes(), 0u);
  EXPECT_LT(bm.PayloadBytes(), 500 * sizeof(uint32_t));
}

}  // namespace
}  // namespace lbr
