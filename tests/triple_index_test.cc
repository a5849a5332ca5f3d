#include "bitmat/triple_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

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
  // Every triple is visible from both orientations.
  for (const Triple& t : g.triples()) {
    EXPECT_TRUE(idx.SoRow(t.p, t.s).Test(t.o))
        << dict.Decode(t).s.ToString();
    EXPECT_TRUE(idx.OsRow(t.p, t.o).Test(t.s));
  }
  // Total bits in each orientation equal the triple count.
  for (uint32_t p = 0; p < idx.num_predicates(); ++p) {
    uint64_t so = 0, os = 0;
    for (const auto& [id, row] : idx.SoRows(p)) {
      (void)id;
      so += row.Count();
    }
    for (const auto& [id, row] : idx.OsRows(p)) {
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
  EXPECT_TRUE(idx.SoRow(q, b).IsEmpty());  // b has no q-edges out
  EXPECT_TRUE(idx.SoRow(999, 0).IsEmpty());  // out-of-range predicate
}

TEST(TripleIndexTest, NonEmptyRowBitvectors) {
  Graph g = SmallGraph();
  TripleIndex idx = TripleIndex::Build(g);
  uint32_t p = *g.dict().PredicateId(Term::Iri("p"));
  Bitvector subjects = idx.SubjectsOf(p);
  EXPECT_TRUE(subjects.Get(*g.dict().SubjectId(Term::Iri("a"))));
  EXPECT_TRUE(subjects.Get(*g.dict().SubjectId(Term::Iri("b"))));
  EXPECT_EQ(subjects.Count(), 2u);
  Bitvector objects = idx.ObjectsOf(p);
  EXPECT_EQ(objects.Count(), 2u);  // b, c
}

TEST(TripleIndexTest, DerivedPsAndPoBitMats) {
  Graph g = SmallGraph();
  TripleIndex idx = TripleIndex::Build(g);
  const Dictionary& dict = g.dict();
  uint32_t a = *dict.SubjectId(Term::Iri("a"));
  BitMat po = idx.PoBitMat(a);  // rows = predicates, cols = objects
  EXPECT_EQ(po.num_rows(), idx.num_predicates());
  EXPECT_EQ(po.num_cols(), idx.num_objects());
  // a has p->{b,c} and q->{b}.
  EXPECT_EQ(po.Count(), 3u);

  uint32_t b_obj = *dict.ObjectId(Term::Iri("b"));
  BitMat ps = idx.PsBitMat(b_obj);  // subjects with (s, p, b)
  EXPECT_EQ(ps.Count(), 2u);        // (a p b), (a q b)
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

TEST(TripleIndexTest, SerializationRoundTrip) {
  Graph g = SmallGraph();
  TripleIndex idx = TripleIndex::Build(g);
  std::stringstream ss;
  idx.WriteTo(&ss);
  TripleIndex back = TripleIndex::ReadFrom(&ss);
  EXPECT_EQ(back.num_triples(), idx.num_triples());
  EXPECT_EQ(back.num_subjects(), idx.num_subjects());
  for (const Triple& t : g.triples()) {
    EXPECT_TRUE(back.SoRow(t.p, t.s).Test(t.o));
    EXPECT_TRUE(back.OsRow(t.p, t.o).Test(t.s));
  }
}

TEST(TripleIndexTest, FileRoundTrip) {
  Graph g = SmallGraph();
  TripleIndex idx = TripleIndex::Build(g);
  std::string path = testing::TempPath("lbr_index_test.bin");
  idx.SaveToFile(path);
  TripleIndex back = TripleIndex::LoadFromFile(path);
  EXPECT_EQ(back.num_triples(), idx.num_triples());
  std::remove(path.c_str());
}

TEST(TripleIndexTest, RejectsBadMagic) {
  std::stringstream ss;
  ss << "NOTANIDX garbage";
  EXPECT_THROW(TripleIndex::ReadFrom(&ss), std::runtime_error);
}

}  // namespace
}  // namespace lbr
