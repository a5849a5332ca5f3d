// Copy-on-write aliasing semantics and the fold memo of BitMat (DESIGN.md
// §4): copies share row handles; mutations clone only touched rows and never
// leak into siblings; FoldInto serves repeat column folds from the memo
// without row iteration until a mutation drops it.

#include "bitmat/bitmat.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/exec_context.h"

namespace lbr {
namespace {

BitMat SampleBitMat() {
  // 4x6 matrix: row 0 {1,3}, row 1 empty, row 2 {0,1,2}, row 3 {5}.
  BitMat bm(4, 6);
  bm.SetRow(0, {1, 3});
  bm.SetRow(2, {0, 1, 2});
  bm.SetRow(3, {5});
  return bm;
}

TEST(BitMatCowTest, CopySharesRowHandles) {
  BitMat a = SampleBitMat();
  BitMat b = a;
  EXPECT_EQ(a.SharedRow(0).get(), b.SharedRow(0).get());
  EXPECT_EQ(a.SharedRow(2).get(), b.SharedRow(2).get());
  EXPECT_EQ(a.SharedRow(1), nullptr);
  EXPECT_EQ(b, a);
}

TEST(BitMatCowTest, SetRowOnCopyDoesNotAlterOriginal) {
  BitMat a = SampleBitMat();
  BitMat b = a;
  b.SetRow(0, {4});
  EXPECT_TRUE(a.Test(0, 1));
  EXPECT_TRUE(a.Test(0, 3));
  EXPECT_FALSE(a.Test(0, 4));
  EXPECT_TRUE(b.Test(0, 4));
  EXPECT_EQ(a.Count(), 6u);
  EXPECT_EQ(b.Count(), 5u);
  // Untouched rows are still shared.
  EXPECT_EQ(a.SharedRow(2).get(), b.SharedRow(2).get());
}

TEST(BitMatCowTest, UnfoldColClonesOnlyTouchedRows) {
  BitMat a = SampleBitMat();
  BitMat b = a;
  Bitvector mask(6);
  mask.Set(1);
  mask.Set(3);
  b.Unfold(mask, Dim::kCol);
  // Row 0 ({1,3}) survives whole: the handle stays shared with `a`.
  EXPECT_EQ(b.SharedRow(0).get(), a.SharedRow(0).get());
  // Row 2 lost bits: fresh handle in `b`, original intact in `a`.
  EXPECT_NE(b.SharedRow(2).get(), a.SharedRow(2).get());
  EXPECT_EQ(a.Row(2).Count(), 3u);
  EXPECT_EQ(b.Row(2).Count(), 1u);
  // Row 3 ({5}) lost everything: null handle in `b`.
  EXPECT_EQ(b.SharedRow(3), nullptr);
  EXPECT_EQ(a.Row(3).Count(), 1u);
}

TEST(BitMatCowTest, UnfoldRowDropsHandlesAndSharesSurvivors) {
  BitMat a = SampleBitMat();
  BitMat b = a;
  Bitvector mask(4);
  mask.Set(2);
  b.Unfold(mask, Dim::kRow);
  EXPECT_EQ(b.SharedRow(0), nullptr);
  EXPECT_EQ(b.SharedRow(2).get(), a.SharedRow(2).get());
  EXPECT_EQ(a.Count(), 6u);
  EXPECT_EQ(b.Count(), 3u);
}

TEST(BitMatCowTest, DeepCopySeversAliasing) {
  BitMat a = SampleBitMat();
  BitMat b = a.DeepCopy();
  EXPECT_EQ(b, a);
  EXPECT_NE(b.SharedRow(0).get(), a.SharedRow(0).get());
  EXPECT_NE(b.SharedRow(2).get(), a.SharedRow(2).get());
}

TEST(BitMatCowTest, FoldMemoKeptByReadsDroppedByBitClearingUnfold) {
  BitMat bm(4, 6);
  bm.SetRow(0, {1, 3});
  bm.Fold(Dim::kCol);
  bm.Fold(Dim::kCol);  // second touch stores
  ASSERT_TRUE(bm.ColFoldMemoized());

  // Reads keep the memo.
  bm.Test(0, 1);
  bm.Transposed();
  bm.Fold(Dim::kRow);
  EXPECT_TRUE(bm.ColFoldMemoized());

  // A no-op unfold (mask keeps everything) changes no bit: memo kept.
  Bitvector full(6);
  full.Fill();
  bm.Unfold(full, Dim::kCol);
  EXPECT_TRUE(bm.ColFoldMemoized());

  // A bit-clearing unfold drops it.
  Bitvector narrow(6);
  narrow.Set(1);
  bm.Unfold(narrow, Dim::kCol);
  EXPECT_FALSE(bm.ColFoldMemoized());
}

TEST(BitMatCowTest, FoldIntoMemoizesColumnFoldOnSecondTouch) {
  ExecContext ctx;
  BitMat bm = SampleBitMat();
  EXPECT_FALSE(bm.ColFoldMemoized());

  // First fold: computed, only marked (fold-once-then-
  // mutate patterns must not pay the memo's allocation).
  Bitvector first;
  bm.FoldInto(Dim::kCol, &first, &ctx);
  EXPECT_EQ(ctx.fold_cache_misses(), 1u);
  EXPECT_EQ(ctx.fold_cache_hits(), 0u);
  EXPECT_FALSE(bm.ColFoldMemoized());

  // Second fold with no mutation between: computed and stored.
  Bitvector second;
  bm.FoldInto(Dim::kCol, &second, &ctx);
  EXPECT_EQ(ctx.fold_cache_misses(), 2u);
  EXPECT_TRUE(bm.ColFoldMemoized());
  EXPECT_EQ(second, first);

  // Third fold, still unmutated: served from the memo — the hit
  // counter proves no row iteration ran — with identical content.
  Bitvector third;
  bm.FoldInto(Dim::kCol, &third, &ctx);
  EXPECT_EQ(ctx.fold_cache_hits(), 1u);
  EXPECT_EQ(ctx.fold_cache_misses(), 2u);
  EXPECT_EQ(third, first);

  // Row folds are incremental metadata, not counted by the memo telemetry.
  Bitvector rows;
  bm.FoldInto(Dim::kRow, &rows, &ctx);
  EXPECT_EQ(ctx.fold_cache_hits(), 1u);
  EXPECT_EQ(ctx.fold_cache_misses(), 2u);
}

TEST(BitMatCowTest, FoldMemoInvalidatedByMutation) {
  ExecContext ctx;
  BitMat bm = SampleBitMat();
  Bitvector out;
  bm.FoldInto(Dim::kCol, &out, &ctx);
  bm.FoldInto(Dim::kCol, &out, &ctx);  // second touch stores
  ASSERT_TRUE(bm.ColFoldMemoized());

  bm.SetRow(0, {0});
  EXPECT_FALSE(bm.ColFoldMemoized());
  bm.FoldInto(Dim::kCol, &out, &ctx);
  EXPECT_EQ(ctx.fold_cache_misses(), 3u);
  EXPECT_EQ(out.SetBits(), (std::vector<uint32_t>{0, 1, 2, 5}));
}

TEST(BitMatCowTest, FoldMemoSharedAcrossCopiesUntilDivergence) {
  ExecContext ctx;
  BitMat a = SampleBitMat();
  Bitvector out;
  a.FoldInto(Dim::kCol, &out, &ctx);
  a.FoldInto(Dim::kCol, &out, &ctx);  // second touch stores

  // The copy inherits the memo: its first fold is already a hit.
  BitMat b = a;
  b.FoldInto(Dim::kCol, &out, &ctx);
  EXPECT_EQ(ctx.fold_cache_hits(), 1u);

  // Mutating the copy drops only its own memo; the original still hits.
  Bitvector narrow(6);
  narrow.Set(1);
  b.Unfold(narrow, Dim::kCol);
  EXPECT_FALSE(b.ColFoldMemoized());
  EXPECT_TRUE(a.ColFoldMemoized());
  a.FoldInto(Dim::kCol, &out, &ctx);
  EXPECT_EQ(ctx.fold_cache_hits(), 2u);
  b.FoldInto(Dim::kCol, &out, &ctx);
  EXPECT_EQ(ctx.fold_cache_misses(), 3u);
  EXPECT_EQ(out.SetBits(), (std::vector<uint32_t>{1}));
}

TEST(BitMatCowTest, MemoizedFoldMatchesRecomputedFoldAfterRoundTrips) {
  // Interleave mutations and folds; every fold must equal a from-scratch
  // fold of an equal matrix.
  ExecContext ctx;
  BitMat bm(8, 32);
  for (uint32_t r = 0; r < 8; ++r) {
    bm.SetRow(r, {r, r + 8, r + 16});
  }
  for (int step = 0; step < 4; ++step) {
    Bitvector memoized;
    bm.FoldInto(Dim::kCol, &memoized, &ctx);  // mark
    bm.FoldInto(Dim::kCol, &memoized, &ctx);  // store
    bm.FoldInto(Dim::kCol, &memoized, &ctx);  // memo path
    EXPECT_EQ(memoized, bm.DeepCopy().Fold(Dim::kCol));
    Bitvector mask(32);
    for (uint32_t c = static_cast<uint32_t>(step); c < 32; c += 2) {
      mask.Set(c);
    }
    bm.Unfold(mask, Dim::kCol);
  }
}

// A transpose's rows view one payload arena that their handles share: it
// outlives the source, copies share it, and a mutation re-encodes only the
// rows it changes into owned storage.
BitMat ArenaSource() {
  // 12x9: column 7 is set in every row (one run once transposed); rows 0,
  // 3, 6 and 9 add one low column each and row 5 adds column 8
  // (positions once transposed).
  BitMat bm(12, 9);
  for (uint32_t r = 0; r < 12; ++r) {
    std::vector<uint32_t> cols;
    if (r % 3 == 0) cols.push_back(r % 7);
    cols.push_back(7);
    if (r == 5) cols.push_back(8);
    bm.SetRow(r, cols);
  }
  return bm;
}

BitMat ExpectedArenaTranspose() {
  BitMat t(9, 12);
  t.SetRow(0, {0});
  t.SetRow(2, {9});
  t.SetRow(3, {3});
  t.SetRow(6, {6});
  t.SetRow(7, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  t.SetRow(8, {5});
  return t;
}

TEST(BitMatCowTest, TransposeOutlivesItsSource) {
  BitMat t;
  {
    BitMat source = ArenaSource();
    t = source.Transposed();
  }
  EXPECT_EQ(t, ExpectedArenaTranspose());
  EXPECT_EQ(t.Row(7).encoding(), CompressedRow::Encoding::kRuns);
  EXPECT_EQ(t.Row(3).encoding(), CompressedRow::Encoding::kPositions);
  EXPECT_TRUE(t.Row(7).is_view());
  EXPECT_TRUE(t.Row(3).is_view());
  // The arena holds exactly the encoded payload: one run word for row 7,
  // one position each for the other five rows.
  EXPECT_EQ(t.PayloadBytes(), 6 * sizeof(uint32_t));
}

TEST(BitMatCowTest, TransposeCopiesShareOneArena) {
  BitMat t = ArenaSource().Transposed();
  BitMat copy = t;
  const BitMat::RowHandle first = t.SharedRow(0);
  t.ForEachRow([&](uint32_t r, const BitMat::RowHandle& h) {
    EXPECT_TRUE(h->is_view()) << r;
    EXPECT_EQ(copy.SharedRow(r).get(), h.get()) << r;
    // Every row is owned by the same control block: the arena.
    EXPECT_FALSE(h.owner_before(first) || first.owner_before(h)) << r;
  });
  // Six rows, each referenced from `t` and `copy`, plus `first`.
  EXPECT_EQ(first.use_count(), 2 * 6 + 1);
}

TEST(BitMatCowTest, TransposedRowMutationsOwnOnlyThatRow) {
  BitMat t = ArenaSource().Transposed();
  Bitvector mask(12);
  mask.Fill();
  mask.Set(11, false);  // only transposed row 7 holds column 11

  BitMat unfolded = t;
  unfolded.Unfold(mask, Dim::kCol);
  EXPECT_FALSE(unfolded.Row(7).is_view());
  EXPECT_EQ(unfolded.Row(7).Count(), 11u);
  EXPECT_FALSE(unfolded.Row(7).Test(11));
  for (uint32_t r : {0u, 2u, 3u, 6u, 8u}) {
    EXPECT_EQ(unfolded.SharedRow(r).get(), t.SharedRow(r).get()) << r;
    EXPECT_TRUE(unfolded.Row(r).is_view()) << r;
  }
  // The source transpose is untouched.
  EXPECT_EQ(t, ExpectedArenaTranspose());
  EXPECT_TRUE(t.Row(7).is_view());

  // The same through a copied-out row: re-encoding owns it; the arena row
  // it was copied from keeps its bits and stays a view.
  CompressedRow row = t.Row(7);
  ASSERT_TRUE(row.is_view());
  row.AndWithInPlace(mask);
  EXPECT_FALSE(row.is_view());
  EXPECT_EQ(row.Count(), 11u);
  EXPECT_EQ(t.Row(7).Count(), 12u);
  EXPECT_TRUE(t.Row(7).is_view());
}

TEST(BitMatCowTest, DeepCopyOfTransposeOutlivesIt) {
  BitMat deep;
  {
    BitMat t = ArenaSource().Transposed();
    deep = t.DeepCopy();
    EXPECT_NE(deep.SharedRow(7).get(), t.SharedRow(7).get());
  }
  // The copied views still read the arena: each holds its source handle.
  EXPECT_EQ(deep, ExpectedArenaTranspose());
}

// The Builder behind loads and transposes: owned rows added to it are
// copied into its arena, so the result outlives them, and every handle
// aliases that one arena.
BitMat BuiltFromOwnedRows() {
  BitMat::Builder b(6, 70);
  b.Add(0, CompressedRow::FromPositions({1, 3}));
  b.AddShared(1, BitMat::UnitRow());
  b.AddPositions(2, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  b.Add(3, CompressedRow());  // empty: skipped
  b.Add(4, CompressedRow::FromPositions({64, 69}));
  return b.Finish();
}

TEST(BitMatCowTest, BuilderRowsShareOneArena) {
  BitMat bm = BuiltFromOwnedRows();
  BitMat expected(6, 70);
  expected.SetRow(0, {1, 3});
  expected.SetRow(1, {0});
  expected.SetRow(2, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  expected.SetRow(4, {64, 69});
  EXPECT_EQ(bm, expected);
  bm.CheckInvariants();
  EXPECT_EQ(bm.SharedRow(1).get(), BitMat::UnitRow().get());
  // Two positions, one run, two positions: the arena's payload.
  EXPECT_EQ(bm.ArenaBytes(), 5 * sizeof(uint32_t));
  const BitMat::RowHandle first = bm.SharedRow(0);
  BitMat copy = bm;
  for (uint32_t r : {0u, 2u, 4u}) {
    const BitMat::RowHandle& h = bm.SharedRow(r);
    EXPECT_TRUE(h->is_view()) << r;
    EXPECT_FALSE(h.owner_before(first) || first.owner_before(h)) << r;
    EXPECT_EQ(copy.SharedRow(r).get(), h.get()) << r;
  }
  EXPECT_EQ(copy.ArenaBytes(), bm.ArenaBytes());
  // Three arena rows, each referenced from `bm` and `copy`, plus `first`.
  EXPECT_EQ(first.use_count(), 2 * 3 + 1);
}

TEST(BitMatCowTest, BuilderPayloadBlocksNeverMove) {
  // Far more payload than the first block holds: later blocks are new
  // allocations, so the rows encoded early still read their own words.
  BitMat::Builder b(500, 1000);
  for (uint32_t r = 0; r < 500; ++r) b.AddPositions(r, {r, r + 2, r + 4});
  BitMat bm = b.Finish();
  EXPECT_EQ(bm.Count(), 1500u);
  for (uint32_t r = 0; r < 500; ++r) {
    ASSERT_EQ(bm.Row(r).SetBits(), (std::vector<uint32_t>{r, r + 2, r + 4}));
  }
  EXPECT_EQ(bm.ArenaBytes(), bm.PayloadBytes());
}

TEST(BitMatCowTest, UnfoldOfBuiltMatrixOwnsOnlyChangedRows) {
  BitMat bm = BuiltFromOwnedRows();
  Bitvector mask(70);
  mask.Fill();
  mask.Set(9, false);  // only row 2 holds column 9
  BitMat unfolded = bm;
  unfolded.Unfold(mask, Dim::kCol);
  EXPECT_FALSE(unfolded.Row(2).is_view());
  EXPECT_EQ(unfolded.Row(2).Count(), 9u);
  for (uint32_t r : {0u, 1u, 4u}) {
    EXPECT_EQ(unfolded.SharedRow(r).get(), bm.SharedRow(r).get()) << r;
  }
  EXPECT_TRUE(unfolded.Row(0).is_view());
  EXPECT_TRUE(bm.Row(2).is_view());
  EXPECT_EQ(bm.Row(2).Count(), 10u);
}

TEST(BitMatCowTest, DeepCopyOfBuiltMatrixOutlivesIt) {
  BitMat deep;
  BitMat expected;
  {
    BitMat bm = BuiltFromOwnedRows();
    expected = bm.DeepCopy();
    deep = bm.DeepCopy();
    EXPECT_NE(deep.SharedRow(2).get(), bm.SharedRow(2).get());
  }
  EXPECT_EQ(deep, expected);
  EXPECT_EQ(deep.Row(2).Count(), 10u);
  EXPECT_TRUE(deep.Test(4, 69));
}

}  // namespace
}  // namespace lbr
