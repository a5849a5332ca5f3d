#include "bitmat/tp_loader.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bitmat/triple_index.h"
#include "test_util.h"

namespace lbr {
namespace {

using testing::MakeGraph;

class TpLoaderTest : public ::testing::Test {
 protected:
  TpLoaderTest()
      : graph_(MakeGraph({
            {"a", "p", "b"},
            {"a", "p", "c"},
            {"b", "p", "c"},
            {"a", "q", "b"},
            {"c", "q", "a"},
            {"c", "r", "c"},  // self-loop for the diagonal TP test
        })),
        index_(TripleIndex::Build(graph_)) {}

  TriplePattern Tp(const std::string& s, const std::string& p,
                   const std::string& o) {
    auto term = [](const std::string& text) {
      if (!text.empty() && text[0] == '?') {
        return PatternTerm::Var(text.substr(1));
      }
      return PatternTerm::Fixed(Term::Iri(text));
    };
    return TriplePattern(term(s), term(p), term(o));
  }

  uint32_t Sid(const std::string& name) {
    return *graph_.dict().SubjectId(Term::Iri(name));
  }
  uint32_t Oid(const std::string& name) {
    return *graph_.dict().ObjectId(Term::Iri(name));
  }

  Graph graph_;
  TripleIndex index_;
};

TEST_F(TpLoaderTest, TwoVarSubjectRows) {
  TpBitMat m = LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "?y"),
                            /*prefer_subject_rows=*/true);
  EXPECT_EQ(m.row_kind, DomainKind::kSubject);
  EXPECT_EQ(m.col_kind, DomainKind::kObject);
  EXPECT_EQ(m.row_var, "x");
  EXPECT_EQ(m.col_var, "y");
  EXPECT_EQ(m.bm.Count(), 3u);
  EXPECT_TRUE(m.bm.Test(Sid("a"), Oid("b")));
  EXPECT_TRUE(m.bm.Test(Sid("b"), Oid("c")));
}

TEST_F(TpLoaderTest, TwoVarObjectRows) {
  TpBitMat m = LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "?y"),
                            /*prefer_subject_rows=*/false);
  EXPECT_EQ(m.row_kind, DomainKind::kObject);
  EXPECT_EQ(m.col_kind, DomainKind::kSubject);
  EXPECT_EQ(m.row_var, "y");
  EXPECT_EQ(m.col_var, "x");
  EXPECT_TRUE(m.bm.Test(Oid("c"), Sid("a")));
}

TEST_F(TpLoaderTest, SubjectVarFixedObject) {
  TpBitMat m = LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "c"), true);
  EXPECT_EQ(m.row_kind, DomainKind::kSubject);
  EXPECT_EQ(m.col_kind, DomainKind::kUnit);
  EXPECT_EQ(m.bm.num_cols(), 1u);
  EXPECT_EQ(m.bm.Count(), 2u);  // a and b
  EXPECT_TRUE(m.bm.Test(Sid("a"), 0));
  EXPECT_TRUE(m.bm.Test(Sid("b"), 0));
}

TEST_F(TpLoaderTest, ObjectVarFixedSubject) {
  TpBitMat m = LoadTpBitMat(index_, graph_.dict(), Tp("a", "p", "?y"), true);
  EXPECT_EQ(m.row_kind, DomainKind::kObject);
  EXPECT_EQ(m.bm.Count(), 2u);  // b and c
  EXPECT_TRUE(m.bm.Test(Oid("b"), 0));
}

TEST_F(TpLoaderTest, FullyFixedExistence) {
  TpBitMat hit = LoadTpBitMat(index_, graph_.dict(), Tp("a", "p", "b"), true);
  EXPECT_EQ(hit.bm.Count(), 1u);
  TpBitMat miss = LoadTpBitMat(index_, graph_.dict(), Tp("b", "p", "b"), true);
  EXPECT_TRUE(miss.bm.IsEmpty());
}

TEST_F(TpLoaderTest, UnknownFixedTermYieldsEmpty) {
  TpBitMat m =
      LoadTpBitMat(index_, graph_.dict(), Tp("?x", "nosuch", "?y"), true);
  EXPECT_TRUE(m.bm.IsEmpty());
  EXPECT_EQ(m.bm.num_rows(), index_.num_subjects());
}

TEST_F(TpLoaderTest, VariablePredicateWithFixedSubject) {
  TpBitMat m = LoadTpBitMat(index_, graph_.dict(), Tp("a", "?p", "?o"), true);
  EXPECT_EQ(m.row_kind, DomainKind::kPredicate);
  EXPECT_EQ(m.col_kind, DomainKind::kObject);
  EXPECT_EQ(m.bm.Count(), 3u);  // (p,b), (p,c), (q,b)
}

TEST_F(TpLoaderTest, VariablePredicateWithFixedObject) {
  TpBitMat m = LoadTpBitMat(index_, graph_.dict(), Tp("?s", "?p", "b"), true);
  EXPECT_EQ(m.row_kind, DomainKind::kPredicate);
  EXPECT_EQ(m.col_kind, DomainKind::kSubject);
  EXPECT_EQ(m.bm.Count(), 2u);  // (p,a), (q,a)
}

TEST_F(TpLoaderTest, VariablePredicateBothFixed) {
  TpBitMat m = LoadTpBitMat(index_, graph_.dict(), Tp("a", "?p", "b"), true);
  EXPECT_EQ(m.row_kind, DomainKind::kPredicate);
  EXPECT_EQ(m.col_kind, DomainKind::kUnit);
  EXPECT_EQ(m.bm.Count(), 2u);  // p and q connect a->b
}

TEST_F(TpLoaderTest, AllVariableThrows) {
  EXPECT_THROW(
      LoadTpBitMat(index_, graph_.dict(), Tp("?s", "?p", "?o"), true),
      UnsupportedQueryError);
}

TEST_F(TpLoaderTest, DiagonalSameVarTwice) {
  // (?x r ?x) matches only the self-loop (c r c).
  TpBitMat m = LoadTpBitMat(index_, graph_.dict(), Tp("?x", "r", "?x"), true);
  EXPECT_EQ(m.bm.Count(), 1u);
  EXPECT_TRUE(m.bm.Test(Sid("c"), Oid("c")));
  // (?x p ?x): no self-loops under p.
  TpBitMat none =
      LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "?x"), true);
  EXPECT_TRUE(none.bm.IsEmpty());
}

TEST_F(TpLoaderTest, LayoutOfAgreesWithTheLoadedMatrix) {
  const uint32_t ns = index_.num_subjects(), no = index_.num_objects(),
                 np = index_.num_predicates();
  const DomainKind kS = DomainKind::kSubject, kO = DomainKind::kObject,
                   kP = DomainKind::kPredicate, kU = DomainKind::kUnit;
  struct Shape {
    TriplePattern tp;
    bool subject_rows;
    TpLayout want;
  };
  const std::vector<Shape> shapes = {
      {Tp("?a", "p", "?b"), true, {kS, kO, "a", "b", ns, no}},
      {Tp("?a", "p", "?b"), false, {kO, kS, "b", "a", no, ns}},
      {Tp("?x", "r", "?x"), true, {kS, kO, "x", "x", ns, no}},
      {Tp("?x", "r", "?x"), false, {kO, kS, "x", "x", no, ns}},
      {Tp("?a", "p", "c"), true, {kS, kU, "a", "", ns, 1}},
      {Tp("a", "p", "?b"), false, {kO, kU, "b", "", no, 1}},
      {Tp("a", "p", "b"), true, {kU, kU, "", "", 1, 1}},
      {Tp("a", "?p", "?b"), false, {kP, kO, "p", "b", np, no}},
      {Tp("?a", "?p", "b"), true, {kP, kS, "p", "a", np, ns}},
      {Tp("a", "?p", "b"), true, {kP, kU, "p", "", np, 1}},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.tp.ToString() + (shape.subject_rows ? " S" : " O"));
    const TpLayout layout = LayoutOf(index_, shape.tp, shape.subject_rows);
    EXPECT_EQ(layout.row_kind, shape.want.row_kind);
    EXPECT_EQ(layout.col_kind, shape.want.col_kind);
    EXPECT_EQ(layout.row_var, shape.want.row_var);
    EXPECT_EQ(layout.col_var, shape.want.col_var);
    EXPECT_EQ(layout.num_rows, shape.want.num_rows);
    EXPECT_EQ(layout.num_cols, shape.want.num_cols);

    const TpBitMat m =
        LoadTpBitMat(index_, graph_.dict(), shape.tp, shape.subject_rows);
    EXPECT_EQ(m.row_kind, layout.row_kind);
    EXPECT_EQ(m.col_kind, layout.col_kind);
    EXPECT_EQ(m.row_var, layout.row_var);
    EXPECT_EQ(m.col_var, layout.col_var);
    EXPECT_EQ(m.bm.num_rows(), layout.num_rows);
    EXPECT_EQ(m.bm.num_cols(), layout.num_cols);
    EXPECT_FALSE(m.bm.IsEmpty());
  }
  EXPECT_THROW(LayoutOf(index_, Tp("?s", "?p", "?o"), true),
               UnsupportedQueryError);
}

TEST_F(TpLoaderTest, SingleColumnRowsShareTheUnitRow) {
  // Every row of a one-column TP matrix is the one static unit row.
  for (const TriplePattern& tp :
       {Tp("?x", "p", "c"), Tp("a", "p", "?y"), Tp("a", "?p", "b"),
        Tp("a", "p", "b")}) {
    TpBitMat m = LoadTpBitMat(index_, graph_.dict(), tp, true);
    ASSERT_FALSE(m.bm.IsEmpty()) << tp.ToString();
    m.bm.ForEachRow([&](uint32_t r, const BitMat::RowHandle& row) {
      EXPECT_EQ(row.get(), BitMat::UnitRow().get()) << tp.ToString() << r;
    });
  }
}

// (?x :r ?x) over 150 shared S/O terms (150 % 64 != 0) whose self-loops
// cover rows on both sides of the 64- and 128-row word boundaries, with
// off-diagonal bits in the same rows, and subject-only/object-only pairs
// whose ids coincide past num_common (the same id names different terms
// there, so those bits are not the diagonal).
TEST(TpLoaderDiagonalTest, KeepsDiagonalAcrossWordsAndVsoBoundary) {
  constexpr int kCommon = 150;
  std::vector<std::vector<std::string>> triples;
  auto c = [](int i) { return "c" + std::to_string(i); };
  for (int i = 0; i < kCommon; ++i) {
    triples.push_back({c(i), "link", c((i + 1) % kCommon)});
    if (i % 3 != 0) triples.push_back({c(i), "r", c(i)});
    triples.push_back({c(i), "r", c((i + 7) % kCommon)});
  }
  for (int k = 0; k < 70; ++k) {
    triples.push_back(
        {"s" + std::to_string(k), "r", "o" + std::to_string(k)});
  }
  Graph graph = MakeGraph(triples);
  TripleIndex index = TripleIndex::Build(graph);
  ASSERT_EQ(index.num_common(), static_cast<uint32_t>(kCommon));

  std::vector<uint32_t> expected;
  for (int i = 0; i < kCommon; ++i) {
    if (i % 3 != 0) {
      expected.push_back(*graph.dict().SubjectId(Term::Iri(c(i))));
    }
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_LT(expected.front(), 64u);
  ASSERT_GE(expected.back(), 128u);
  // Some subject-only term lands on a diagonal position past num_common.
  bool past_common_diagonal = false;
  for (int k = 0; k < 70; ++k) {
    uint32_t s = *graph.dict().SubjectId(Term::Iri("s" + std::to_string(k)));
    uint32_t o = *graph.dict().ObjectId(Term::Iri("o" + std::to_string(k)));
    past_common_diagonal |= s == o;
  }
  ASSERT_TRUE(past_common_diagonal);

  for (bool subject_rows : {true, false}) {
    TriplePattern tp(PatternTerm::Var("x"), PatternTerm::Fixed(Term::Iri("r")),
                     PatternTerm::Var("x"));
    TpBitMat m = LoadTpBitMat(index, graph.dict(), tp, subject_rows);
    m.bm.CheckInvariants();
    EXPECT_EQ(m.bm.NonEmptyRows().SetBits(), expected);
    EXPECT_EQ(m.bm.Count(), expected.size());
    std::vector<std::pair<uint32_t, uint32_t>> bits;
    m.bm.ForEachBit(
        [&](uint32_t r, uint32_t col) { bits.emplace_back(r, col); });
    std::vector<std::pair<uint32_t, uint32_t>> diagonal;
    for (uint32_t r : expected) diagonal.emplace_back(r, r);
    EXPECT_EQ(bits, diagonal);
  }
}

TEST_F(TpLoaderTest, ActiveMasksRestrictRows) {
  Bitvector row_mask(index_.num_subjects());
  row_mask.Set(Sid("b"));
  ActiveMasks masks;
  masks.row_mask = &row_mask;
  TpBitMat m =
      LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "?y"), true, masks);
  EXPECT_EQ(m.bm.Count(), 1u);  // only (b p c)
  EXPECT_TRUE(m.bm.Test(Sid("b"), Oid("c")));
}

TEST_F(TpLoaderTest, ActiveMasksRestrictCols) {
  Bitvector col_mask(index_.num_objects());
  col_mask.Set(Oid("b"));
  ActiveMasks masks;
  masks.col_mask = &col_mask;
  TpBitMat m =
      LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "?y"), true, masks);
  EXPECT_EQ(m.bm.Count(), 1u);  // only (a p b)
}

// Loads build every row in one arena (BitMat::Builder): the handles share
// one owner, the matrix outlives the slice pin and a spill of the slice,
// and a row the active-pruning mask leaves whole stays the slice's row.
TEST_F(TpLoaderTest, LoadedRowsShareOneArena) {
  for (bool subject_rows : {true, false}) {
    TpBitMat m =
        LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "?y"), subject_rows);
    ASSERT_EQ(m.bm.NonEmptyRowCount(), 2u);
    const BitMat::RowHandle first = m.bm.SharedRow(m.bm.NonEmptyRows()
                                                       .SetBits()
                                                       .front());
    TpBitMat copy = m;
    m.bm.ForEachRow([&](uint32_t r, const BitMat::RowHandle& h) {
      EXPECT_TRUE(h->is_view()) << r;
      EXPECT_FALSE(h.owner_before(first) || first.owner_before(h)) << r;
      EXPECT_EQ(copy.bm.SharedRow(r).get(), h.get()) << r;
    });
    // Two rows, each referenced from `m` and `copy`, plus `first`.
    EXPECT_EQ(first.use_count(), 2 * 2 + 1);
  }
}

TEST_F(TpLoaderTest, LoadedTpOutlivesItsSlicePinAndSpill) {
  Graph graph = MakeGraph({
      {"a", "p", "b"},
      {"a", "p", "c"},
      {"b", "p", "c"},
      {"c", "p", "a"},
  });
  TripleIndex index = TripleIndex::Build(graph);
  TriplePattern tp(PatternTerm::Var("x"), PatternTerm::Fixed(Term::Iri("p")),
                   PatternTerm::Var("y"));
  TpBitMat m = LoadTpBitMat(index, graph.dict(), tp, true);
  BitMat expected(m.bm.num_rows(), m.bm.num_cols());
  m.bm.ForEachRow([&](uint32_t r, const BitMat::RowHandle& h) {
    expected.SetRow(r, h->SetBits());
  });
  // The loader released its pin; now spill every slice under a budget, so
  // a slice of owned rows (paranoid reads) frees them.
  index.SetMemoryBudget(1);
  index.SpillToFit();
  EXPECT_GT(index.snapshot_spills(), 0u);
  EXPECT_EQ(index.snapshot_resident_bytes(), 0u);
  EXPECT_EQ(m.bm, expected);
  EXPECT_EQ(m.bm.Count(), 4u);
  // Reloading after the spill rematerializes the slice: same bits.
  EXPECT_EQ(LoadTpBitMat(index, graph.dict(), tp, true).bm, expected);
}

TEST_F(TpLoaderTest, DeepCopyOfLoadedTpOutlivesIt) {
  BitMat deep;
  {
    TpBitMat m =
        LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "?y"), true);
    deep = m.bm.DeepCopy();
    EXPECT_NE(deep.SharedRow(Sid("a")).get(), m.bm.SharedRow(Sid("a")).get());
  }
  EXPECT_EQ(deep.Count(), 3u);
  EXPECT_TRUE(deep.Test(Sid("a"), Oid("b")));
  EXPECT_TRUE(deep.Test(Sid("a"), Oid("c")));
  EXPECT_TRUE(deep.Test(Sid("b"), Oid("c")));
}

TEST_F(TpLoaderTest, UnfoldReencodesOnlyTheRowsItChanges) {
  TpBitMat m = LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "?y"), true);
  const TpBitMat loaded = m;
  Bitvector mask(index_.num_objects());
  mask.Fill();
  mask.Set(Oid("b"), false);  // only row a holds (a p b)
  m.bm.Unfold(mask, Dim::kCol);
  EXPECT_FALSE(m.bm.Row(Sid("a")).is_view());
  EXPECT_EQ(m.bm.Row(Sid("a")).Count(), 1u);
  EXPECT_EQ(m.bm.SharedRow(Sid("b")).get(),
            loaded.bm.SharedRow(Sid("b")).get());
  EXPECT_TRUE(m.bm.Row(Sid("b")).is_view());
  EXPECT_EQ(loaded.bm.Row(Sid("a")).Count(), 2u);  // the load is untouched
}

TEST_F(TpLoaderTest, MaskThatDropsNoBitKeepsTheSliceRow) {
  TripleIndex::SlicePin pin =
      index_.Slice(*graph_.dict().PredicateId(Term::Iri("p")),
                   TripleIndex::Side::kSO);
  const CompressedRow& slice_row = TripleIndex::FindRowIn(pin->rows, Sid("a"));
  Bitvector col_mask(index_.num_objects());
  col_mask.Set(Oid("b"));
  col_mask.Set(Oid("c"));
  ActiveMasks masks;
  masks.col_mask = &col_mask;
  TpBitMat whole =
      LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "?y"), true, masks);
  EXPECT_EQ(whole.bm.Count(), 3u);
  EXPECT_TRUE(whole.bm.Row(Sid("a")).is_view());
  if (slice_row.is_view()) {
    // Mapped slice rows are shared as they are: nothing was re-encoded.
    EXPECT_EQ(whole.bm.Row(Sid("a")).pdata(), slice_row.pdata());
    EXPECT_EQ(whole.bm.ArenaBytes(), 0u);
  }

  col_mask.Set(Oid("b"), false);  // drops (a p b): row a is re-encoded
  TpBitMat masked =
      LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "?y"), true, masks);
  EXPECT_EQ(masked.bm.Count(), 2u);
  EXPECT_EQ(masked.bm.Row(Sid("a")).SetBits(),
            (std::vector<uint32_t>{Oid("c")}));
  EXPECT_NE(masked.bm.Row(Sid("a")).pdata(), slice_row.pdata());
  EXPECT_GT(masked.bm.ArenaBytes(), 0u);
}

// A masked load equals the unmasked load filtered row by row, for every
// mask shape the leapfrog over the slice's row ids can meet: over 300
// shared S/O terms plus subject-only and object-only ones, so the slice
// rows span several mask words, skip ids, and stop short of the domain.
TEST(TpLoaderMaskedLoadTest, EqualsTheUnmaskedLoadFilteredRowByRow) {
  constexpr int kCommon = 300;
  std::vector<std::vector<std::string>> triples;
  auto e = [](int i) { return "e" + std::to_string(i); };
  for (int i = 0; i < kCommon; ++i) {
    triples.push_back({e(i), "link", e((i + 1) % kCommon)});
    if (i % 5 == 0) continue;  // ids with no row in p's slices
    triples.push_back({e(i), "p", e((i * 7 + 1) % kCommon)});
    triples.push_back({e(i), "p", e((i * 13 + 5) % kCommon)});
    if (i % 3 == 2) triples.push_back({e(i), "p", e(i)});
    if (i % 3 == 1) triples.push_back({e(i), "p", "hub"});
  }
  for (int k = 0; k < 40; ++k) {
    triples.push_back({"s" + std::to_string(k), "p", e(k * 7 % kCommon)});
    // Only q reaches the z* terms: they lie past p's last slice row.
    triples.push_back({"zs" + std::to_string(k), "q", "zo" + std::to_string(k)});
  }
  Graph graph = MakeGraph(triples);
  TripleIndex index = TripleIndex::Build(graph);
  const uint32_t p = *graph.dict().PredicateId(Term::Iri("p"));

  auto var = [](const char* name) { return PatternTerm::Var(name); };
  auto iri = [](const char* name) {
    return PatternTerm::Fixed(Term::Iri(name));
  };
  struct Case {
    TriplePattern tp;
    bool subject_rows;
  };
  const std::vector<Case> cases = {
      {TriplePattern(var("a"), iri("p"), var("b")), true},
      {TriplePattern(var("a"), iri("p"), var("b")), false},
      {TriplePattern(var("x"), iri("p"), var("x")), true},
      {TriplePattern(var("x"), iri("p"), var("x")), false},
      {TriplePattern(var("a"), iri("p"), iri("hub")), true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.tp.ToString() + (c.subject_rows ? " S-O" : " O-S"));
    const TripleIndex::Side side = TpReadSide(c.tp, c.subject_rows);
    const TripleIndex::SlicePin pin = index.Slice(p, side);
    const bool diagonal = c.tp.s.var == c.tp.o.var;
    const bool single_column = !c.tp.o.is_var;
    const TpBitMat full =
        LoadTpBitMat(index, graph.dict(), c.tp, c.subject_rows);
    const uint32_t num_rows = full.num_rows, num_cols = full.num_cols;
    ASSERT_GE(full.bm.NonEmptyRowCount(), 64u);
    const std::vector<uint32_t> full_rows = full.bm.NonEmptyRows().SetBits();
    const uint32_t last_row = full_rows.back();
    ASSERT_GT(last_row, 128u);
    ASSERT_LT(last_row + 1, num_rows);

    auto mask = [](size_t n, auto keep) {
      Bitvector m(n);
      for (size_t i = 0; i < n; ++i) m.Set(i, keep(i));
      return m;
    };
    const uint32_t mid_row = full_rows[full_rows.size() / 2];
    const std::vector<std::pair<std::string, Bitvector>> row_masks = {
        {"empty", Bitvector(num_rows)},
        {"one bit", mask(num_rows, [&](size_t i) { return i == mid_row; })},
        {"every third", mask(num_rows, [](size_t i) { return i % 3 == 0; })},
        {"all", Bitvector(num_rows, true)},
        {"past the last row",
         mask(num_rows, [&](size_t i) { return i > last_row; })},
        {"shorter than the domain",
         mask(last_row / 2 + 1, [](size_t i) { return i % 2 == 1; })},
    };
    // A single-column TP has no column variable, so no column mask.
    std::vector<std::optional<Bitvector>> col_masks = {std::nullopt};
    if (!single_column) {
      col_masks.push_back(mask(num_cols, [](size_t i) { return i % 2 == 0; }));
    }

    for (const auto& [name, row_mask] : row_masks) {
      for (const std::optional<Bitvector>& col_mask : col_masks) {
        SCOPED_TRACE(name + (col_mask ? " + column mask" : ""));
        ActiveMasks masks;
        masks.row_mask = &row_mask;
        masks.col_mask = col_mask ? &*col_mask : nullptr;
        auto admits = [](const Bitvector* m, uint32_t id) {
          return m == nullptr || (id < m->size() && m->Get(id));
        };
        BitMat expected(num_rows, num_cols);
        uint64_t kept_bits = 0;
        full.bm.ForEachRow([&](uint32_t r, const BitMat::RowHandle& h) {
          if (!admits(masks.row_mask, r)) return;
          std::vector<uint32_t> kept;
          h->ForEachSetBit([&](uint32_t col) {
            if (admits(masks.col_mask, col)) kept.push_back(col);
          });
          kept_bits += kept.size();
          if (!kept.empty()) expected.SetRow(r, kept);
        });

        TpBitMat m =
            LoadTpBitMat(index, graph.dict(), c.tp, c.subject_rows, masks);
        m.bm.CheckInvariants();
        EXPECT_EQ(m.bm, expected);
        EXPECT_EQ(m.bm.Count(), kept_bits);
        full.bm.ForEachBit([&](uint32_t r, uint32_t col) {
          EXPECT_EQ(m.bm.Test(r, col), admits(masks.row_mask, r) &&
                                           admits(masks.col_mask, col))
              << r << "," << col;
        });
        m.bm.ForEachRow([&](uint32_t r, const BitMat::RowHandle& h) {
          if (single_column) {
            EXPECT_EQ(h.get(), BitMat::UnitRow().get()) << r;
            return;
          }
          const CompressedRow& slice_row = TripleIndex::FindRowIn(pin->rows, r);
          if (diagonal || !slice_row.is_view() ||
              h->Count() != slice_row.Count()) {
            return;
          }
          // A row the column mask left whole is the slice's own row.
          EXPECT_EQ(h->pdata(), slice_row.pdata()) << r;
        });
      }
    }
  }
}

TEST(AlignMaskTest, SameKindCopies) {
  Bitvector src(10);
  src.Set(3);
  src.Set(7);
  Bitvector out =
      AlignMask(src, DomainKind::kSubject, DomainKind::kSubject, 5, 10);
  EXPECT_EQ(out.SetBits(), src.SetBits());
}

TEST(AlignMaskTest, CrossDomainTruncatesAtVso) {
  Bitvector src(10);
  src.Set(2);
  src.Set(6);  // above the Vso bound of 5: not join-compatible
  Bitvector out =
      AlignMask(src, DomainKind::kSubject, DomainKind::kObject, 5, 12);
  EXPECT_EQ(out.SetBits(), (std::vector<uint32_t>{2}));
  EXPECT_EQ(out.size(), 12u);
}

TEST(AlignMaskTest, PredicateToEntityThrows) {
  Bitvector src(4, true);
  EXPECT_THROW(
      AlignMask(src, DomainKind::kPredicate, DomainKind::kSubject, 2, 8),
      UnsupportedQueryError);
}

}  // namespace
}  // namespace lbr
