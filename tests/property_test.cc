// Property tests: the LBR engine must agree (as a bag, up to row order)
// with the reference SPARQL-semantics evaluator on randomly generated
// well-designed queries over randomly generated graphs. These sweeps cover
// acyclic and cyclic GoJ, one- and multi-jvar slaves, nested OPT chains,
// peers, filters, and unions — every code path of Algorithms 3.1-5.4.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/pairwise_engine.h"
#include "baseline/reference_evaluator.h"
#include "bitmat/tp_loader.h"
#include "bitmat/triple_index.h"
#include "core/engine.h"
#include "sparql/parser.h"
#include "sparql/well_designed.h"
#include "test_util.h"
#include "util/rng.h"

namespace lbr {
namespace {

using testing::Canonicalize;
using testing::CanonicalizeProjected;

using testing::RandomGraph;
using testing::RandomWellDesignedQuery;

// gtest names each sweep test after the raw bytes of its SweepParams, so
// the struct must hold no padding: padding bytes are indeterminate, and the
// ctest names would change from run to run. `unused` fills the two bytes
// the bools leave before the struct's 8-byte alignment.
struct SweepParams {
  uint64_t seed;
  int num_entities;
  int num_predicates;
  int num_triples;
  bool allow_nested;
  bool allow_filter;
  uint16_t unused = 0;
};
static_assert(sizeof(SweepParams) == sizeof(uint64_t) + 3 * sizeof(int) +
                                         2 * sizeof(bool) + sizeof(uint16_t),
              "SweepParams must have no padding bytes");

class WellDesignedSweep : public ::testing::TestWithParam<SweepParams> {};

// Runs the sweep's 25 generated queries through an engine with `options`
// and compares each with the reference evaluator. Returns how many of them
// ran best-match. With `shared_plan_cache`, each query runs as text, right
// after a default engine sharing the plan cache has compiled it, so the
// engine under test runs every query on another engine's cached plan.
int SweepMatchesReference(const SweepParams& p, EngineOptions options,
                          bool shared_plan_cache = false) {
  Rng rng(p.seed);
  Graph g = RandomGraph(&rng, p.num_entities, p.num_predicates,
                        p.num_triples);
  TripleIndex index = TripleIndex::Build(g);
  Engine engine(&index, &g.dict(), options);
  EngineOptions compiler_options;
  compiler_options.plan_cache = engine.shared_plan_cache();
  Engine compiler(&index, &g.dict(), compiler_options);
  ReferenceEvaluator oracle(&g);

  int best_match_runs = 0;
  for (int iter = 0; iter < 25; ++iter) {
    std::string text = RandomWellDesignedQuery(
        &rng, p.num_predicates, p.num_entities, p.allow_nested,
        p.allow_filter);
    ParsedQuery query = Parser::Parse(text);
    EXPECT_TRUE(IsWellDesigned(*query.body)) << text;

    ResultTable expected = oracle.Execute(query);
    ResultTable got;
    QueryStats stats;
    try {
      if (shared_plan_cache) {
        compiler.ExecuteToTable(text);
        got = engine.ExecuteToTable(text, &stats);
        EXPECT_EQ(stats.plan_cache_hits, 1u) << text;
      } else {
        got = engine.ExecuteToTable(query, &stats);
      }
    } catch (const UnsupportedQueryError&) {
      continue;  // e.g. a generated Cartesian product; out of engine scope
    }
    if (stats.best_match_used) ++best_match_runs;
    EXPECT_EQ(CanonicalizeProjected(got, expected.var_names),
              Canonicalize(expected))
        << "query: " << text << "\ncyclic: " << stats.goj_cyclic;
  }
  return best_match_runs;
}

TEST_P(WellDesignedSweep, EngineMatchesReference) {
  SweepMatchesReference(GetParam(), EngineOptions());
}

// The same queries without pruning: every TP loads without active-pruning
// masks and prune_triples is skipped. The join then meets partially NULL
// slave groups (phantoms of enumeration order) that nullification and
// best-match must repair, so the leg must run best-match at least once.
TEST_P(WellDesignedSweep, UnprunedEngineMatchesReference) {
  EngineOptions options;
  options.enable_prune = false;
  EXPECT_GT(SweepMatchesReference(GetParam(), options), 0)
      << "no query of the leg ran best-match";
}

// An unpruned engine running plans that a pruning engine compiled into a
// shared PlanCache: the cached plan must not carry the compiling engine's
// prune setting, or the unpruned engine skips the best-match it needs.
TEST_P(WellDesignedSweep, UnprunedEngineOnSharedPlanCacheMatchesReference) {
  EngineOptions options;
  options.enable_prune = false;
  EXPECT_GT(SweepMatchesReference(GetParam(), options,
                                  /*shared_plan_cache=*/true),
            0)
      << "no query of the leg ran best-match";
}

INSTANTIATE_TEST_SUITE_P(
    RandomQueries, WellDesignedSweep,
    ::testing::Values(
        SweepParams{1, 12, 4, 60, false, false},
        SweepParams{2, 8, 3, 80, false, false},
        SweepParams{3, 20, 5, 120, false, false},
        SweepParams{4, 12, 4, 60, true, false},
        SweepParams{5, 8, 3, 90, true, false},
        SweepParams{6, 15, 4, 100, true, false},
        SweepParams{7, 12, 4, 60, false, true},
        SweepParams{8, 10, 3, 70, true, true},
        SweepParams{9, 25, 6, 200, true, true},
        SweepParams{10, 6, 2, 40, true, true},
        SweepParams{11, 30, 8, 300, true, false},
        SweepParams{12, 40, 5, 250, false, false}),
    [](const ::testing::TestParamInfo<SweepParams>& info) {
      const SweepParams& p = info.param;
      std::string name = "seed" + std::to_string(p.seed);
      if (p.allow_nested) name += "_nested";
      if (p.allow_filter) name += "_filter";
      return name;
    });

class PairwiseSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(PairwiseSweep, PairwiseBaselineMatchesReference) {
  const SweepParams& p = GetParam();
  Rng rng(p.seed * 1000 + 17);
  Graph g = RandomGraph(&rng, p.num_entities, p.num_predicates,
                        p.num_triples);
  TripleIndex index = TripleIndex::Build(g);
  PairwiseEngine baseline(&index, &g.dict());
  ReferenceEvaluator oracle(&g);

  for (int iter = 0; iter < 25; ++iter) {
    std::string text = RandomWellDesignedQuery(
        &rng, p.num_predicates, p.num_entities, p.allow_nested,
        p.allow_filter);
    ParsedQuery query = Parser::Parse(text);
    ResultTable expected = oracle.Execute(query);
    ResultTable got = baseline.ExecuteToTable(query);
    EXPECT_EQ(CanonicalizeProjected(got, expected.var_names),
              Canonicalize(expected))
        << "query: " << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomQueries, PairwiseSweep,
    ::testing::Values(SweepParams{21, 12, 4, 60, false, false},
                      SweepParams{22, 8, 3, 80, true, false},
                      SweepParams{23, 20, 5, 120, true, true},
                      SweepParams{24, 10, 3, 70, false, true}),
    [](const ::testing::TestParamInfo<SweepParams>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// UNION on the master side (rewrite rules 1-2) must match the oracle
// exactly, duplicates included.
TEST(UnionPropertyTest, UnionQueriesMatchReference) {
  Rng rng(77);
  Graph g = RandomGraph(&rng, 10, 4, 80);
  TripleIndex index = TripleIndex::Build(g);
  Engine engine(&index, &g.dict());
  ReferenceEvaluator oracle(&g);

  for (int iter = 0; iter < 30; ++iter) {
    auto pred = [&]() {
      return "<p" + std::to_string(rng.Uniform(4)) + ">";
    };
    std::ostringstream q;
    q << "SELECT * WHERE { { { ?a " << pred() << " ?b . } UNION { ?a "
      << pred() << " ?b . } } OPTIONAL { ?b " << pred() << " ?c . } }";
    ParsedQuery query = Parser::Parse(q.str());
    ResultTable expected = oracle.Execute(query);
    ResultTable got = engine.ExecuteToTable(query);
    EXPECT_EQ(CanonicalizeProjected(got, expected.var_names),
              Canonicalize(expected))
        << q.str();
  }
}

// OPTIONAL over a UNION exercises rewrite rule 3, whose spurious subsumed
// rows the final best-match removes.
TEST(UnionPropertyTest, OptionalOverUnionUsesRule3) {
  Rng rng(78);
  Graph g = RandomGraph(&rng, 10, 4, 80);
  TripleIndex index = TripleIndex::Build(g);
  Engine engine(&index, &g.dict());
  ReferenceEvaluator oracle(&g);

  for (int iter = 0; iter < 30; ++iter) {
    auto pred = [&]() {
      return "<p" + std::to_string(rng.Uniform(4)) + ">";
    };
    std::ostringstream q;
    q << "SELECT * WHERE { ?a " << pred() << " ?b . OPTIONAL { { ?b "
      << pred() << " ?c . } UNION { ?b " << pred() << " ?c . } } }";
    ParsedQuery query = Parser::Parse(q.str());
    ResultTable expected = oracle.Execute(query);
    ResultTable got = engine.ExecuteToTable(query);
    EXPECT_EQ(Canonicalize(got), Canonicalize(expected)) << q.str();
  }
}

}  // namespace
}  // namespace lbr
