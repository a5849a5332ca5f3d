#include "core/explain.h"

#include <gtest/gtest.h>

#include "bitmat/triple_index.h"
#include "core/engine.h"
#include "test_util.h"

namespace lbr {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest()
      : graph_(testing::SitcomGraph()),
        index_(TripleIndex::Build(graph_)),
        engine_(&index_, &graph_.dict()) {}

  std::string Explain(const std::string& sparql) {
    return ExplainQuery(engine_, sparql);
  }

  Graph graph_;
  TripleIndex index_;
  Engine engine_;
};

TEST_F(ExplainTest, RunningExamplePlan) {
  std::string plan = Explain(testing::SitcomQuery());
  EXPECT_NE(plan.find("UNF branches: 1"), std::string::npos);
  EXPECT_NE(plan.find("well-designed: yes"), std::string::npos);
  EXPECT_NE(plan.find("SN0 [absolute master]"), std::string::npos);
  EXPECT_NE(plan.find("edge SN0 -> SN1  (OPTIONAL)"), std::string::npos);
  EXPECT_NE(plan.find("acyclic"), std::string::npos);
  EXPECT_NE(plan.find("order_bu: ?friend ?sitcom ?friend"),
            std::string::npos);
  EXPECT_NE(plan.find("not required"), std::string::npos);
}

TEST_F(ExplainTest, ShowsEstimatedCardinalities) {
  std::string plan = Explain(testing::SitcomQuery());
  // tp0 (<Jerry> <hasFriend> ?friend) matches exactly 2 triples.
  EXPECT_NE(plan.find("(~2 triples)"), std::string::npos);
}

TEST_F(ExplainTest, CyclicMultiJvarSlaveFlagged) {
  std::string plan = Explain(
      "SELECT * WHERE { ?a <hasFriend> ?f . "
      "OPTIONAL { ?f <actedIn> ?s . ?s <location> ?c . ?a <actedIn> ?s . } "
      "}");
  EXPECT_NE(plan.find("CYCLIC"), std::string::npos);
  EXPECT_NE(plan.find("REQUIRED"), std::string::npos);
  EXPECT_NE(plan.find("order (greedy)"), std::string::npos);
}

// The plan's decision is structural; an engine that does not prune runs
// best-match on every branch, and its explain says so.
TEST_F(ExplainTest, UnprunedEngineRequiresBestMatch) {
  EngineOptions options;
  options.enable_prune = false;
  Engine unpruned(&index_, &graph_.dict(), options);
  std::string plan = ExplainQuery(unpruned, testing::SitcomQuery());
  EXPECT_NE(plan.find("nullification/best-match: REQUIRED"),
            std::string::npos);
}

TEST_F(ExplainTest, NonWellDesignedConversionReported) {
  std::string plan = Explain(
      "SELECT * WHERE { { <Jerry> <hasFriend> ?f . "
      "OPTIONAL { ?f <actedIn> ?s . } } { ?s <location> <NewYorkCity> . } "
      "}");
  EXPECT_NE(plan.find("well-designed: NO"), std::string::npos);
  EXPECT_NE(plan.find("Appendix B"), std::string::npos);
}

TEST_F(ExplainTest, UnionBranchesEnumerated) {
  std::string plan = Explain(
      "SELECT * WHERE { { ?f <actedIn> ?s . } UNION "
      "{ <Jerry> <hasFriend> ?f . } }");
  EXPECT_NE(plan.find("UNF branches: 2"), std::string::npos);
  EXPECT_NE(plan.find("branch 0"), std::string::npos);
  EXPECT_NE(plan.find("branch 1"), std::string::npos);
}

TEST_F(ExplainTest, FiltersListedWithScopes) {
  std::string plan = Explain(
      "SELECT * WHERE { <Jerry> <hasFriend> ?f . "
      "OPTIONAL { ?f <actedIn> ?s . FILTER (?s != <Veep>) } }");
  EXPECT_NE(plan.find("filter [?s != <Veep>] scope {SN1}"),
            std::string::npos);
}

TEST_F(ExplainTest, ProjectionListed) {
  std::string plan = Explain(testing::SitcomQuery());
  EXPECT_NE(plan.find("projection: ?friend ?sitcom"), std::string::npos);
}

TEST_F(ExplainTest, LoadOrderPutsMasterBeforeOptionalSlave) {
  // tp0 (<Jerry> <hasFriend> ?friend) is the master and loads first. The
  // OPTIONAL slave's TPs follow, smallest estimate first: tp2 (~2 triples)
  // before tp1 (~10 triples).
  std::string plan = Explain(testing::SitcomQuery());
  EXPECT_NE(plan.find("load order: tp0 tp2 tp1\n"), std::string::npos)
      << plan;
}

TEST_F(ExplainTest, CartesianProductRejectedLikeExecute) {
  // Explain plans through the engine, so it refuses exactly what Execute
  // refuses.
  const std::string q =
      "SELECT * WHERE { ?a <hasFriend> ?b . ?c <location> ?d . }";
  EXPECT_THROW(engine_.ExecuteToTable(q), UnsupportedQueryError);
  EXPECT_THROW(Explain(q), UnsupportedQueryError);
}

TEST_F(ExplainTest, CacheStatsRendered) {
  QueryStats stats;
  stats.tp_cache_hits = 3;
  stats.tp_cache_misses = 1;
  stats.tp_cache_held_triples = 42;
  stats.fold_cache_hits = 7;
  stats.fold_cache_misses = 2;
  std::string out = ExplainCacheStats(stats);
  EXPECT_NE(out.find("tp cache: 3 hit(s), 1 miss(es), 42 triple(s) held"),
            std::string::npos);
  EXPECT_NE(out.find("fold cache: 7 hit(s), 2 miss(es)"), std::string::npos);
}

TEST_F(ExplainTest, PhaseTimersAndJoinCountersRendered) {
  QueryStats stats;
  stats.t_plan_sec = 0.001;
  stats.t_init_sec = 0.002;
  stats.t_prune_sec = 0.003;
  stats.t_join_sec = 0.004;
  stats.t_best_match_sec = 0.005;
  stats.t_project_sec = 0.006;
  stats.t_total_sec = 0.025;
  stats.join_columns_extracted = 4;
  stats.join_rows_scanned = 636;
  stats.join_transposes = 2;
  std::string out = ExplainCacheStats(stats);
  EXPECT_NE(out.find("phases: plan 1 ms, init 2 ms, prune 3 ms, join 4 ms, "
                     "best-match 5 ms, project 6 ms of 25 ms"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("join: 4 column(s) extracted, 636 row(s) scanned, "
                     "2 transpose(s)"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace lbr
