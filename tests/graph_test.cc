#include "rdf/graph.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace lbr {
namespace {

using testing::MakeGraph;
using testing::T;

TEST(GraphTest, DeduplicatesTriples) {
  Graph g = Graph::FromTriples({T("a", "p", "b"), T("a", "p", "b")});
  EXPECT_EQ(g.num_triples(), 1u);
}

TEST(GraphTest, TriplesAreSorted) {
  Graph g = MakeGraph({{"z", "p", "b"}, {"a", "p", "b"}, {"a", "p", "a"}});
  const auto& ts = g.triples();
  for (size_t i = 1; i < ts.size(); ++i) {
    EXPECT_TRUE(ts[i - 1] < ts[i]);
  }
}

TEST(GraphTest, StatsMatchDictionary) {
  Graph g = MakeGraph({
      {"a", "p", "b"},
      {"b", "q", "c"},
      {"c", "p", "\"lit\""},
  });
  EXPECT_EQ(g.num_triples(), 3u);
  EXPECT_EQ(g.dict().num_subjects(), 3u);    // a, b, c
  EXPECT_EQ(g.dict().num_predicates(), 2u);  // p, q
  EXPECT_EQ(g.dict().num_objects(), 3u);     // b, c, "lit"
  EXPECT_EQ(g.dict().num_common(), 2u);      // b, c
}

TEST(GraphTest, EmptyGraph) {
  Graph g = Graph::FromTriples({});
  EXPECT_EQ(g.num_triples(), 0u);
  EXPECT_EQ(g.dict().num_subjects(), 0u);
  EXPECT_EQ(g.dict().num_predicates(), 0u);
}

TEST(GraphTest, EncodedTriplesDecodeBack) {
  std::vector<TermTriple> in = {T("a", "p", "b"), T("b", "p", "\"x\""),
                                T("_:n", "q", "a")};
  Graph g = Graph::FromTriples(in);
  std::multiset<std::string> expected, got;
  for (const TermTriple& t : in) {
    expected.insert(t.s.ToString() + t.p.ToString() + t.o.ToString());
  }
  for (const Triple& t : g.triples()) {
    TermTriple d = g.dict().Decode(t);
    got.insert(d.s.ToString() + d.p.ToString() + d.o.ToString());
  }
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace lbr
