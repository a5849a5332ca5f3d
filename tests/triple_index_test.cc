#include "bitmat/triple_index.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace lbr {
namespace {

using testing::MakeGraph;

Graph SmallGraph() {
  return MakeGraph({
      {"a", "p", "b"},
      {"a", "p", "c"},
      {"b", "p", "c"},
      {"a", "q", "b"},
      {"c", "q", "a"},
  });
}

TEST(TripleIndexTest, DimensionsMatchDictionary) {
  Graph g = SmallGraph();
  TripleIndex idx = TripleIndex::Build(g);
  EXPECT_EQ(idx.num_subjects(), g.dict().num_subjects());
  EXPECT_EQ(idx.num_objects(), g.dict().num_objects());
  EXPECT_EQ(idx.num_predicates(), 2u);
  EXPECT_EQ(idx.num_common(), g.dict().num_common());
  EXPECT_EQ(idx.num_triples(), 5u);
}

TEST(TripleIndexTest, PredicateCardinalities) {
  Graph g = SmallGraph();
  TripleIndex idx = TripleIndex::Build(g);
  uint32_t p = *g.dict().PredicateId(Term::Iri("p"));
  uint32_t q = *g.dict().PredicateId(Term::Iri("q"));
  EXPECT_EQ(idx.PredicateCardinality(p), 3u);
  EXPECT_EQ(idx.PredicateCardinality(q), 2u);
}

TEST(TripleIndexTest, SoAndOsRowsAgree) {
  Graph g = SmallGraph();
  TripleIndex idx = TripleIndex::Build(g);
  const Dictionary& dict = g.dict();
  using Side = TripleIndex::Side;
  // Every triple is visible from both orientations.
  for (const Triple& t : g.triples()) {
    TripleIndex::SlicePin so = idx.Slice(t.p, Side::kSO);
    TripleIndex::SlicePin os = idx.Slice(t.p, Side::kOS);
    ASSERT_NE(so, nullptr);
    ASSERT_NE(os, nullptr);
    EXPECT_TRUE(TripleIndex::FindRowIn(so->rows, t.s).Test(t.o))
        << dict.Decode(t).s.ToString();
    EXPECT_TRUE(TripleIndex::FindRowIn(os->rows, t.o).Test(t.s));
  }
  // Total bits in each orientation equal the triple count.
  for (uint32_t p = 0; p < idx.num_predicates(); ++p) {
    uint64_t so = 0, os = 0;
    for (const auto& [id, row] : idx.Slice(p, Side::kSO)->rows) {
      (void)id;
      so += row.Count();
    }
    for (const auto& [id, row] : idx.Slice(p, Side::kOS)->rows) {
      (void)id;
      os += row.Count();
    }
    EXPECT_EQ(so, idx.PredicateCardinality(p));
    EXPECT_EQ(os, idx.PredicateCardinality(p));
  }
}

TEST(TripleIndexTest, MissingRowsAreEmpty) {
  Graph g = SmallGraph();
  TripleIndex idx = TripleIndex::Build(g);
  uint32_t q = *g.dict().PredicateId(Term::Iri("q"));
  uint32_t b = *g.dict().SubjectId(Term::Iri("b"));
  TripleIndex::SlicePin so = idx.Slice(q, TripleIndex::Side::kSO);
  ASSERT_NE(so, nullptr);
  EXPECT_TRUE(TripleIndex::FindRowIn(so->rows, b).IsEmpty());  // no q-edges
  EXPECT_EQ(idx.Slice(999, TripleIndex::Side::kSO), nullptr);  // out of range
}

TEST(TripleIndexTest, DerivedPsAndPoBitMats) {
  Graph g = SmallGraph();
  TripleIndex idx = TripleIndex::Build(g);
  const Dictionary& dict = g.dict();
  // The per-subject P-O and per-object P-S families are derived: row `p`
  // of subject a's P-O BitMat is row a of p's S-O slice (and likewise for
  // P-S over O-S slices), so summing those rows over every predicate counts
  // the derived BitMat's bits.
  auto derived_count = [&](TripleIndex::Side side, uint32_t id) {
    uint64_t count = 0;
    for (uint32_t p = 0; p < idx.num_predicates(); ++p) {
      count += TripleIndex::FindRowIn(idx.Slice(p, side)->rows, id).Count();
    }
    return count;
  };
  // a has p->{b,c} and q->{b}.
  EXPECT_EQ(derived_count(TripleIndex::Side::kSO,
                          *dict.SubjectId(Term::Iri("a"))),
            3u);
  // Subjects with (s, p, b): (a p b), (a q b).
  EXPECT_EQ(derived_count(TripleIndex::Side::kOS,
                          *dict.ObjectId(Term::Iri("b"))),
            2u);
}

TEST(TripleIndexTest, SizeReportHybridSavesOverRle) {
  // A graph with long runs and sparse rows: hybrid <= pure RLE.
  std::vector<std::vector<std::string>> triples;
  for (int i = 0; i < 64; ++i) {
    triples.push_back({"hub", "p", "o" + std::to_string(i)});
  }
  triples.push_back({"lonely", "p", "o0"});
  triples.push_back({"lonely", "p", "o63"});
  Graph g = MakeGraph(triples);
  TripleIndex idx = TripleIndex::Build(g);
  TripleIndex::SizeReport report = idx.ComputeSizeReport();
  EXPECT_GT(report.num_rows, 0u);
  EXPECT_LE(report.hybrid_bytes, report.rle_only_bytes);
  EXPECT_EQ(report.hybrid_bytes, 2 * (report.so_bytes + report.os_bytes));
}

TEST(TripleIndexTest, BuiltImageSurvivesSpill) {
  // A spill madvise(DONTNEED)s a slice's extent pages. A built index maps
  // its image from a file, so they fault back from the file; in anonymous
  // private memory they would come back zeroed and fail their checksums.
  std::vector<std::vector<std::string>> triples;
  for (int i = 0; i < 300; ++i) {
    triples.push_back({"hub", "p", "o" + std::to_string(i)});
    triples.push_back({"s" + std::to_string(i), "q", "o" + std::to_string(i % 7)});
  }
  Graph g = MakeGraph(triples);
  TripleIndex idx = TripleIndex::Build(g);
  idx.SetMemoryBudget(1);
  using Rows = std::vector<std::pair<uint32_t, std::vector<uint32_t>>>;
  auto read_all = [&] {
    std::vector<Rows> slices;
    for (uint32_t p = 0; p < idx.num_predicates(); ++p) {
      for (TripleIndex::Side side :
           {TripleIndex::Side::kSO, TripleIndex::Side::kOS}) {
        TripleIndex::SlicePin pin = idx.Slice(p, side);
        Rows rows;
        for (const auto& [id, row] : pin->rows) {
          rows.emplace_back(id, row.SetBits());
        }
        slices.push_back(std::move(rows));
      }
    }
    return slices;
  };
  const std::vector<Rows> before = read_all();
  idx.SpillToFit();
  EXPECT_EQ(idx.snapshot_resident_bytes(), 0u);
  EXPECT_GE(idx.snapshot_spills(), before.size());
  EXPECT_EQ(read_all(), before);
  EXPECT_EQ(idx.snapshot_materializations(), 2 * before.size());
  EXPECT_EQ(idx.snapshot_quarantined(), 0u);
}

}  // namespace
}  // namespace lbr
