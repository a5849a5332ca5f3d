#include "core/bestmatch.h"

#include <gtest/gtest.h>

namespace lbr {
namespace {

constexpr uint64_t N = kNullBinding;

// BestMatch over rows stated as RawRows: through a RowSlab and back.
std::vector<RawRow> BestMatchRows(const std::vector<RawRow>& rows,
                                  const std::vector<int>& master_cols) {
  RowSlab slab(rows.empty() ? 0 : rows[0].size());
  for (const RawRow& row : rows) slab.Append(row.data());
  RowSlab kept = BestMatch(slab, master_cols);
  std::vector<RawRow> out;
  for (size_t i = 0; i < kept.size(); ++i) {
    out.emplace_back(kept.row(i), kept.row(i) + kept.width());
  }
  return out;
}

TEST(RowTest, SubsumptionDefinition) {
  // r1 is subsumed by r2 iff non-nulls agree and r2 binds strictly more.
  EXPECT_TRUE(IsSubsumedBy({1, N, N}, {1, 2, 3}));
  EXPECT_TRUE(IsSubsumedBy({1, 2, N}, {1, 2, 3}));
  EXPECT_FALSE(IsSubsumedBy({1, 2, 3}, {1, 2, 3}));  // equal: not strict
  EXPECT_FALSE(IsSubsumedBy({1, 9, N}, {1, 2, 3}));  // disagreement
  EXPECT_FALSE(IsSubsumedBy({1, 2, 3}, {1, 2, N}));  // wrong direction
  EXPECT_FALSE(IsSubsumedBy({N, 2, N}, {1, N, 3}));  // incomparable
}

TEST(RowTest, CountNulls) {
  EXPECT_EQ(CountNulls({1, 2, 3}), 0u);
  EXPECT_EQ(CountNulls({N, 2, N}), 2u);
  EXPECT_EQ(CountNulls({}), 0u);
}

TEST(RowTest, SlabCountsZeroWidthRows) {
  RowSlab slab(0);
  slab.Append(nullptr);
  slab.AppendNulls();
  EXPECT_EQ(slab.size(), 2u);
  RowSlab more(0);
  more.AppendAll(slab);
  more.PopBack();
  EXPECT_EQ(more.size(), 1u);
  EXPECT_EQ(BestMatch(slab, {}).size(), 2u);  // equal rows: bag semantics
}

TEST(RowTest, SlabRowCounterCountsEqualRows) {
  RowSlab slab(2);
  std::vector<RawRow> rows;
  for (uint64_t i = 0; i < 300; ++i) rows.push_back({i % 100, N});
  for (const RawRow& row : rows) slab.Append(row.data());
  SlabRowCounter counter(&slab);
  for (size_t i = 0; i < slab.size(); ++i) {
    EXPECT_EQ(counter.Add(i), i / 100 + 1) << i;  // across table growth
  }
  // A dropped duplicate leaves the counts of the rows kept intact.
  RowSlab dedup(2);
  SlabRowCounter seen(&dedup);
  for (const RawRow& row : rows) {
    dedup.Append(row.data());
    if (seen.Add(dedup.size() - 1) > 1) dedup.PopBack();
  }
  ASSERT_EQ(dedup.size(), 100u);
  for (size_t i = 0; i < dedup.size(); ++i) EXPECT_EQ(dedup.row(i)[0], i);
}

TEST(BestMatchTest, PaperFigure32Res2ToRes3) {
  // After nullification the paper's example has rows 2-5 where rows 3-5
  // (Julia with NULL sitcom) are subsumed by row 2 (Julia, Seinfeld).
  std::vector<RawRow> rows{
      {10, N},   // Larry, NULL           (kept)
      {11, 20},  // Julia, Seinfeld       (kept)
      {11, N},   // Julia, NULL x3        (subsumed)
      {11, N},
      {11, N},
  };
  std::vector<RawRow> out = BestMatchRows(rows, {0});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (RawRow{10, N}));
  EXPECT_EQ(out[1], (RawRow{11, 20}));
}

TEST(BestMatchTest, ExactDuplicatesKept) {
  // Bag semantics: equal rows are not subsumed by each other.
  std::vector<RawRow> rows{{1, 2}, {1, 2}};
  EXPECT_EQ(BestMatchRows(rows, {0}).size(), 2u);
}

TEST(BestMatchTest, GroupsByMasterColumns) {
  // Rows in different master groups never subsume each other even if
  // comparable on the remaining columns.
  std::vector<RawRow> rows{
      {1, 5, N},
      {2, 5, 7},  // different master binding: no subsumption
  };
  EXPECT_EQ(BestMatchRows(rows, {0}).size(), 2u);
  // Without grouping (empty master cols) the first row IS subsumed... it is
  // not: column 0 differs (1 vs 2), so non-null disagreement. Still 2.
  EXPECT_EQ(BestMatchRows(rows, {}).size(), 2u);
}

TEST(BestMatchTest, ChainOfSubsumption) {
  std::vector<RawRow> rows{
      {1, N, N},
      {1, 2, N},
      {1, 2, 3},
  };
  std::vector<RawRow> out = BestMatchRows(rows, {0});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (RawRow{1, 2, 3}));
}

TEST(BestMatchTest, IncomparableNullPatternsAllSurvive) {
  std::vector<RawRow> rows{
      {1, 2, N},
      {1, N, 3},
  };
  EXPECT_EQ(BestMatchRows(rows, {0}).size(), 2u);
}

TEST(BestMatchTest, EmptyAndSingleton) {
  EXPECT_TRUE(BestMatchRows({}, {}).empty());
  std::vector<RawRow> one{{1, N}};
  EXPECT_EQ(BestMatchRows(one, {}).size(), 1u);
}

TEST(BestMatchTest, EmptyMasterColumnsSingleGroup) {
  std::vector<RawRow> rows{
      {1, N},
      {1, 2},
  };
  std::vector<RawRow> out = BestMatchRows(rows, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (RawRow{1, 2}));
}

TEST(BestMatchTest, NullMasterKeySentinelHandled) {
  // Master columns are normally never NULL, but BestMatch must not
  // misbehave if handed rows where they are (e.g. cross-branch rows from
  // UNF arms with disjoint variables): kNullBinding participates in the
  // grouping key like any other value.
  std::vector<RawRow> rows{
      {N, 1, N},
      {N, 1, 2},
  };
  std::vector<RawRow> out = BestMatchRows(rows, {0});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (RawRow{N, 1, 2}));
}

TEST(BestMatchTest, ManyDistinctGroupsNoCrossTalk) {
  // Rows in 1000 distinct master groups, each with a full and a subsumed
  // variant: exactly one survivor per group, regardless of hash bucketing.
  std::vector<RawRow> rows;
  for (uint64_t g = 0; g < 1000; ++g) {
    rows.push_back({g, 5, N});
    rows.push_back({g, 5, 9});
  }
  std::vector<RawRow> out = BestMatchRows(rows, {0});
  EXPECT_EQ(out.size(), 1000u);
  for (const RawRow& row : out) {
    EXPECT_EQ(row[2], 9u);
  }
}

TEST(BestMatchTest, LargeGroupStress) {
  // 1 full row + many distinct subsumed rows + many unrelated rows.
  std::vector<RawRow> rows;
  rows.push_back({7, 1, 2, 3});
  for (uint64_t i = 0; i < 50; ++i) {
    rows.push_back({7, 1, 2, N});
    rows.push_back({7, 1, N, N});
    rows.push_back({8 + i, 1, 2, N});  // different master: kept
  }
  std::vector<RawRow> out = BestMatchRows(rows, {0});
  // Survivors: the full row + 50 distinct-master rows... plus the
  // duplicates of subsumed rows are all removed.
  EXPECT_EQ(out.size(), 51u);
}

}  // namespace
}  // namespace lbr
