#include "core/selectivity.h"

#include <gtest/gtest.h>

#include <limits>

#include "bitmat/triple_index.h"
#include "test_util.h"

namespace lbr {
namespace {

using testing::MakeGraph;

class SelectivityTest : public ::testing::Test {
 protected:
  SelectivityTest()
      : graph_(MakeGraph({
            {"a", "p", "b"},
            {"a", "p", "c"},
            {"b", "p", "c"},
            {"a", "q", "b"},
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

  uint64_t Card(const std::string& s, const std::string& p,
                const std::string& o) {
    return EstimateTpCardinality(index_, graph_.dict(), Tp(s, p, o));
  }

  Graph graph_;
  TripleIndex index_;
};

TEST_F(SelectivityTest, FixedPredicateShapes) {
  EXPECT_EQ(Card("?x", "p", "?y"), 3u);
  EXPECT_EQ(Card("?x", "q", "?y"), 1u);
  EXPECT_EQ(Card("?x", "p", "c"), 2u);   // a and b
  EXPECT_EQ(Card("a", "p", "?y"), 2u);   // b and c
  EXPECT_EQ(Card("a", "p", "b"), 1u);
  EXPECT_EQ(Card("b", "p", "b"), 0u);
}

TEST_F(SelectivityTest, UnknownTermsAreZero) {
  EXPECT_EQ(Card("?x", "nosuch", "?y"), 0u);
  EXPECT_EQ(Card("nosuch", "p", "?y"), 0u);
  EXPECT_EQ(Card("?x", "p", "nosuch"), 0u);
}

TEST_F(SelectivityTest, VariablePredicateShapes) {
  EXPECT_EQ(Card("a", "?p", "?o"), 3u);   // (p,b),(p,c),(q,b)
  EXPECT_EQ(Card("?s", "?p", "b"), 2u);   // (a,p,b),(a,q,b)
  EXPECT_EQ(Card("a", "?p", "b"), 2u);    // p and q
  EXPECT_EQ(Card("?s", "?p", "?o"), 4u);  // everything
}

TEST_F(SelectivityTest, EstimatesAreExactForAllShapes) {
  // Cross-check every estimate against a brute-force count.
  struct Shape {
    std::string s, p, o;
  };
  for (const Shape& shape : std::vector<Shape>{
           {"?x", "p", "?y"}, {"?x", "p", "c"}, {"a", "p", "?y"},
           {"a", "p", "b"},   {"a", "?p", "?o"}, {"?s", "?p", "b"},
           {"a", "?p", "b"}}) {
    TriplePattern tp = Tp(shape.s, shape.p, shape.o);
    uint64_t brute = 0;
    for (const Triple& t : graph_.triples()) {
      TermTriple d = graph_.dict().Decode(t);
      auto matches = [](const PatternTerm& pt, const Term& term) {
        return pt.is_var || pt.term == term;
      };
      if (matches(tp.s, d.s) && matches(tp.p, d.p) && matches(tp.o, d.o)) {
        ++brute;
      }
    }
    EXPECT_EQ(EstimateTpCardinality(index_, graph_.dict(), tp), brute)
        << tp.ToString();
  }
}

TEST(JvarSelectivityKeyTest, PicksMostSelectiveHolder) {
  std::vector<uint64_t> cards{100, 5, 40};
  EXPECT_EQ(JvarSelectivityKey(cards, {0, 1, 2}), 5u);
  EXPECT_EQ(JvarSelectivityKey(cards, {0, 2}), 40u);
  EXPECT_EQ(JvarSelectivityKey(cards, {}),
            std::numeric_limits<uint64_t>::max());
}

}  // namespace
}  // namespace lbr
