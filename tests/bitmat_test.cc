#include "bitmat/bitmat.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

namespace lbr {
namespace {

// A dense reference model of a BitMat: row id -> sorted column positions.
using RowModel = std::map<uint32_t, std::vector<uint32_t>>;

// Checks every read path of `bm` against `model`: Count, NonEmptyRows,
// Row/SharedRow/Test on every row (empty ones included), ForEachBit
// order, and operator== against a matrix rebuilt from the model in
// ascending order. Also runs the debug-build CheckInvariants.
void ExpectMatchesModel(const BitMat& bm, const RowModel& model) {
  bm.CheckInvariants();
  uint64_t count = 0;
  std::vector<uint32_t> ids;
  std::vector<std::pair<uint32_t, uint32_t>> bits;
  BitMat rebuilt(bm.num_rows(), bm.num_cols());
  for (const auto& [r, cols] : model) {
    count += cols.size();
    ids.push_back(r);
    for (uint32_t c : cols) bits.emplace_back(r, c);
    rebuilt.SetRow(r, cols);
  }
  EXPECT_EQ(bm.Count(), count);
  EXPECT_EQ(bm.NonEmptyRows().SetBits(), ids);
  for (uint32_t r = 0; r < bm.num_rows(); ++r) {
    auto it = model.find(r);
    if (it == model.end()) {
      EXPECT_TRUE(bm.Row(r).IsEmpty()) << "row " << r;
      EXPECT_EQ(bm.SharedRow(r), nullptr) << "row " << r;
      EXPECT_FALSE(bm.Test(r, 0)) << "row " << r;
      continue;
    }
    EXPECT_EQ(bm.Row(r).SetBits(), it->second) << "row " << r;
    ASSERT_NE(bm.SharedRow(r), nullptr) << "row " << r;
    EXPECT_EQ(bm.SharedRow(r).get(), &bm.Row(r)) << "row " << r;
    for (uint32_t c : it->second) EXPECT_TRUE(bm.Test(r, c)) << r << "," << c;
  }
  std::vector<std::pair<uint32_t, uint32_t>> got;
  bm.ForEachBit([&got](uint32_t r, uint32_t c) { got.emplace_back(r, c); });
  EXPECT_EQ(got, bits);
  EXPECT_EQ(bm, rebuilt);
  EXPECT_EQ(rebuilt, bm);
}

// 200 rows (200 % 64 != 0): the interesting rows sit on both sides of the
// first two word boundaries and at the very last row.
constexpr uint32_t kRows = 200;
constexpr uint32_t kCols = 150;

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

TEST(BitMatTest, OutOfOrderSetRowAtWordBoundaries) {
  BitMat bm(kRows, kCols);
  RowModel model;
  auto set = [&](uint32_t r, std::vector<uint32_t> cols) {
    bm.SetRow(r, cols);
    if (cols.empty()) {
      model.erase(r);
    } else {
      model[r] = std::move(cols);
    }
    ExpectMatchesModel(bm, model);
  };
  // Ascending appends, then inserts before, between and after them.
  set(64, {1, 2});
  set(127, {149});
  set(0, {0});
  set(kRows - 1, {5, 6, 7});
  set(63, {63, 64});
  set(65, {10});
  // Replacing an existing row keeps its slot.
  set(64, {100});
  // SetRow-to-empty in the middle, at the front and at the back.
  set(64, {});
  set(0, {});
  set(kRows - 1, {});
  // Emptying an already empty row is a no-op for the bits.
  set(128, {});
  // Refill across the boundaries again.
  set(kRows - 1, {149});
  set(0, {3});
  set(64, {64});
  // Drain everything, out of order.
  for (uint32_t r : {127u, 0u, kRows - 1, 63u, 65u, 64u}) set(r, {});
  EXPECT_TRUE(bm.IsEmpty());
}

TEST(BitMatTest, UnfoldDropsWholeRowsOnBothDims) {
  BitMat bm(kRows, kCols);
  RowModel model{{0, {0, 64}},
                 {63, {1}},
                 {64, {64, 65, 149}},
                 {127, {2, 3}},
                 {128, {64}},
                 {kRows - 1, {0, 149}}};
  for (const auto& [r, cols] : model) bm.SetRow(r, cols);
  ExpectMatchesModel(bm, model);
  const BitMat before = bm;

  // Row dim: drop rows 63 and 127 (and everything past the mask's end).
  Bitvector rows(kRows - 1, true);
  rows.Set(63, false);
  rows.Set(127, false);
  bm.Unfold(rows, Dim::kRow);
  model.erase(63);
  model.erase(127);
  model.erase(kRows - 1);
  ExpectMatchesModel(bm, model);

  // Col dim: keep columns 0 and 64 only. Row 0 survives whole (its
  // handle stays shared with `before`), row 64 loses bits, row 128
  // survives, and a row holding none of the kept columns drops out.
  bm.SetRow(65, {1, 2});
  model[65] = {1, 2};
  Bitvector cols(kCols);
  cols.Set(0);
  cols.Set(64);
  bm.Unfold(cols, Dim::kCol);
  model[64] = {64};
  model.erase(65);
  ExpectMatchesModel(bm, model);
  EXPECT_EQ(bm.SharedRow(0).get(), before.SharedRow(0).get());
  EXPECT_NE(bm.SharedRow(64).get(), before.SharedRow(64).get());

  // The copy taken before the unfolds is untouched.
  EXPECT_EQ(before.Count(), 11u);
  EXPECT_TRUE(before.Test(127, 3));
  EXPECT_TRUE(before.Test(kRows - 1, 149));
  before.CheckInvariants();

  // Dropping every row leaves a valid empty matrix that can grow again.
  bm.Unfold(Bitvector(kRows), Dim::kRow);
  ExpectMatchesModel(bm, {});
  bm.SetRow(kRows - 1, {7});
  ExpectMatchesModel(bm, {{kRows - 1, {7}}});
}

TEST(BitMatTest, TransposedWithFarMoreColsThanBits) {
  constexpr uint32_t kWide = 100000;
  BitMat bm(3, kWide);
  bm.SetRow(0, {0, 64, kWide - 1});
  bm.SetRow(2, {63, 64});
  BitMat t = bm.Transposed();
  EXPECT_EQ(t.num_rows(), kWide);
  EXPECT_EQ(t.num_cols(), 3u);
  ExpectMatchesModel(
      t, {{0, {0}}, {63, {2}}, {64, {0, 2}}, {kWide - 1, {0}}});
  EXPECT_EQ(t.Transposed(), bm);
}

TEST(BitMatTest, UnitRowIsOneSharedHandle) {
  const BitMat::RowHandle& unit = BitMat::UnitRow();
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit.get(), BitMat::UnitRow().get());
  EXPECT_EQ(unit->SetBits(), (std::vector<uint32_t>{0}));
  BitMat bm(kRows, 1);
  for (uint32_t r : {0u, 63u, 64u, kRows - 1}) bm.SetRowShared(r, unit);
  ExpectMatchesModel(bm, {{0, {0}}, {63, {0}}, {64, {0}}, {kRows - 1, {0}}});
  EXPECT_EQ(bm.SharedRow(64).get(), unit.get());
  // A deep copy owns its rows; the unit row itself owns no heap.
  BitMat deep = bm.DeepCopy();
  EXPECT_EQ(deep, bm);
  EXPECT_NE(deep.SharedRow(64).get(), unit.get());
  EXPECT_LT(bm.HeapBytes(), deep.HeapBytes());
}

}  // namespace
}  // namespace lbr
