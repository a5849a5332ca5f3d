#include "core/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bitmat/triple_index.h"
#include "core/database.h"
#include "core/engine.h"
#include "sparql/parser.h"
#include "sparql/plan_shape.h"
#include "test_util.h"

namespace lbr {
namespace {

using testing::Canonicalize;
using testing::MakeGraph;
using testing::SitcomGraph;
using testing::SitcomQuery;

// ---------------------------------------------------------------------------
// Shape-key canonicalization (plan_shape.h).

TEST(PlanShapeTest, SameShapeDifferentConstantsShareKey) {
  QueryShape a = CanonicalizeQuery(
      "SELECT ?x WHERE { <Jerry> <hasFriend> ?x }");
  QueryShape b = CanonicalizeQuery(
      "SELECT ?x WHERE { <Julia> <actedIn> ?x }");
  EXPECT_EQ(a.key, b.key);
  ASSERT_EQ(a.constants.size(), 2u);
  ASSERT_EQ(b.constants.size(), 2u);
  EXPECT_EQ(a.constants[0].value, "Jerry");
  EXPECT_EQ(b.constants[0].value, "Julia");
  EXPECT_EQ(b.constants[1].value, "actedIn");
}

TEST(PlanShapeTest, PrefixSpellingDoesNotChangeShape) {
  QueryShape plain = CanonicalizeQuery(
      "SELECT ?x WHERE { <http://a.org/s> <http://a.org/p> ?x }");
  QueryShape prefixed = CanonicalizeQuery(
      "PREFIX ex: <http://other.net/> "
      "SELECT ?x WHERE { ex:s ex:p ?x }");
  EXPECT_EQ(plain.key, prefixed.key);
  // The pname constants resolve against the query's own prologue.
  ASSERT_EQ(prefixed.constants.size(), 2u);
  EXPECT_EQ(prefixed.constants[0].value, "http://other.net/s");
}

TEST(PlanShapeTest, DifferentOptionalNestingChangesKey) {
  QueryShape flat = CanonicalizeQuery(
      "SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?b <q> ?c } "
      "OPTIONAL { ?b <r> ?d } }");
  QueryShape nested = CanonicalizeQuery(
      "SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?b <q> ?c "
      "OPTIONAL { ?b <r> ?d } } }");
  EXPECT_NE(flat.key, nested.key);
}

TEST(PlanShapeTest, VariableNamesAreStructural) {
  QueryShape a = CanonicalizeQuery("SELECT ?x WHERE { ?x <p> <o> }");
  QueryShape b = CanonicalizeQuery("SELECT ?y WHERE { ?y <p> <o> }");
  EXPECT_NE(a.key, b.key);
}

TEST(PlanShapeTest, ConstantKindIsPreserved) {
  // An IRI object and a literal object are different shapes: the template
  // must fail to parse exactly where the original would.
  QueryShape iri = CanonicalizeQuery("SELECT ?x WHERE { ?x <p> <o> }");
  QueryShape lit = CanonicalizeQuery("SELECT ?x WHERE { ?x <p> \"o\" }");
  EXPECT_NE(iri.key, lit.key);
  EXPECT_EQ(lit.constants[1].kind, TermKind::kLiteral);
}

TEST(PlanShapeTest, FilterConstantsAreAbstracted) {
  QueryShape a = CanonicalizeQuery(
      "SELECT ?x WHERE { ?x <p> ?y . FILTER (?y != <b>) }");
  QueryShape b = CanonicalizeQuery(
      "SELECT ?x WHERE { ?x <p> ?y . FILTER (?y != <c>) }");
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.constants.back().value, "b");
  EXPECT_EQ(b.constants.back().value, "c");
}

TEST(PlanShapeTest, MarkerRoundTrip) {
  QueryShape shape = CanonicalizeQuery("SELECT ?x WHERE { <s> <p> ?x }");
  size_t slot = 999;
  EXPECT_TRUE(IsShapeParam(
      Term::Iri(std::string(kShapeParamPrefix) + "0"), &slot));
  EXPECT_EQ(slot, 0u);
  EXPECT_TRUE(IsShapeParam(
      Term::Iri(std::string(kShapeParamPrefix) + "17"), &slot));
  EXPECT_EQ(slot, 17u);
  EXPECT_FALSE(IsShapeParam(Term::Iri("urn:lbr:param:"), &slot));
  EXPECT_FALSE(IsShapeParam(Term::Iri("urn:lbr:param:x1"), &slot));
  EXPECT_FALSE(IsShapeParam(Term::Iri("Jerry"), &slot));
  // A query that *uses* a marker-looking IRI is itself abstracted, so the
  // template can never confuse it with a slot.
  EXPECT_EQ(shape.constants.size(), 2u);
}

// ---------------------------------------------------------------------------
// PlanCache unit behavior.

std::shared_ptr<CompiledPlan> TrivialPlan() {
  return std::make_shared<CompiledPlan>();
}

TEST(PlanCacheTest, MissThenHit) {
  PlanCache cache(8);
  int compiles = 0;
  auto compile = [&] {
    ++compiles;
    return TrivialPlan();
  };
  auto a = cache.GetOrCompile("k", compile);
  auto b = cache.GetOrCompile("k", compile);
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, LruEvictsOldest) {
  PlanCache cache(2);
  int compiles = 0;
  auto compile = [&] {
    ++compiles;
    return TrivialPlan();
  };
  cache.GetOrCompile("a", compile);
  cache.GetOrCompile("b", compile);
  cache.GetOrCompile("a", compile);  // refresh a; b is now LRU
  cache.GetOrCompile("c", compile);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  cache.GetOrCompile("a", compile);
  EXPECT_EQ(compiles, 3);  // a still cached
  cache.GetOrCompile("b", compile);
  EXPECT_EQ(compiles, 4);  // b was evicted
}

TEST(PlanCacheTest, ClearDropsEverything) {
  PlanCache cache(8);
  int compiles = 0;
  auto compile = [&] {
    ++compiles;
    return TrivialPlan();
  };
  cache.GetOrCompile("a", compile);
  cache.GetOrCompile("b", compile);
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.GetOrCompile("a", compile);
  EXPECT_EQ(compiles, 3);
}

TEST(PlanCacheTest, FailedCompileCachesNothing) {
  PlanCache cache(8);
  EXPECT_THROW(
      cache.GetOrCompile(
          "k", []() -> std::shared_ptr<CompiledPlan> {
            throw std::runtime_error("boom");
          }),
      std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  int compiles = 0;
  cache.GetOrCompile("k", [&] {
    ++compiles;
    return TrivialPlan();
  });
  EXPECT_EQ(compiles, 1);  // no poisoned entry, no stuck in-flight mark
}

TEST(PlanCacheTest, SingleFlightCompilesOnce) {
  PlanCache cache(8);
  std::atomic<int> compiles{0};
  std::atomic<int> arrived{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CompiledPlan>> results(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[i] = cache.GetOrCompile("k", [&] {
        // Hold the compile until every thread has been launched, so the
        // others genuinely overlap with the in-flight compile.
        compiles.fetch_add(1);
        while (arrived.load() < kThreads - 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return TrivialPlan();
      });
    });
    arrived.fetch_add(1);
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(compiles.load(), 1);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i].get(), results[0].get());
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
}

// ---------------------------------------------------------------------------
// Engine-level behavior: hits skip planning, rebinding is correct, and the
// cached execution is bit-identical to a cold one.

class PlanCacheEngineTest : public ::testing::Test {
 protected:
  PlanCacheEngineTest()
      : graph_(SitcomGraph()), index_(TripleIndex::Build(graph_)) {}

  Engine MakeEngine() { return Engine(&index_, &graph_.dict()); }

  Graph graph_;
  TripleIndex index_;
};

TEST_F(PlanCacheEngineTest, HitSkipsAllPlanningPhases) {
  Engine engine = MakeEngine();
  QueryStats cold, warm;
  ResultTable a = engine.ExecuteToTable(SitcomQuery(), &cold);
  ResultTable b = engine.ExecuteToTable(SitcomQuery(), &warm);

  EXPECT_EQ(cold.plan_cache_misses, 1u);
  EXPECT_EQ(cold.plan_cache_hits, 0u);
  EXPECT_GE(cold.planning_parses, 1u);
  EXPECT_GE(cold.planning_gosn_builds, 1u);

  EXPECT_EQ(warm.plan_cache_hits, 1u);
  EXPECT_EQ(warm.plan_cache_misses, 0u);
  // The observable proof a hit skips parse/rewrite/GoSN/jvar-order.
  EXPECT_EQ(warm.planning_parses, 0u);
  EXPECT_EQ(warm.planning_rewrites, 0u);
  EXPECT_EQ(warm.planning_gosn_builds, 0u);
  EXPECT_EQ(warm.planning_jvar_orders, 0u);

  EXPECT_EQ(Canonicalize(a), Canonicalize(b));
}

TEST_F(PlanCacheEngineTest, CachedExecutionIsBitIdenticalToCold) {
  // Same text, three engines: one cold per run vs one reused warm engine.
  Engine warm = MakeEngine();
  for (const char* sparql :
       {"SELECT ?who ?show ?where WHERE { <Jerry> <hasFriend> ?who . "
        "OPTIONAL { ?who <actedIn> ?show . ?show <location> ?where } }",
        "SELECT ?who ?show ?where WHERE { <Jerry> <hasFriend> ?who . "
        "OPTIONAL { ?who <actedIn> ?show . ?show <location> ?where } }"}) {
    Engine cold = MakeEngine();
    QueryStats ws, cs;
    ResultTable w = warm.ExecuteToTable(sparql, &ws);
    ResultTable c = cold.ExecuteToTable(sparql, &cs);
    EXPECT_EQ(w.var_names, c.var_names);
    EXPECT_EQ(Canonicalize(w), Canonicalize(c));
  }
}

TEST_F(PlanCacheEngineTest, RebindingServesDifferentConstants) {
  Engine engine = MakeEngine();
  QueryStats s1, s2;
  // Compile the shape with one set of constants...
  ResultTable friends =
      engine.ExecuteToTable("SELECT ?x WHERE { <Jerry> <hasFriend> ?x }", &s1);
  // ...then hit it with different subject AND predicate.
  ResultTable shows =
      engine.ExecuteToTable("SELECT ?x WHERE { <Julia> <actedIn> ?x }", &s2);
  EXPECT_EQ(s1.plan_cache_misses, 1u);
  EXPECT_EQ(s2.plan_cache_hits, 1u);

  Engine cold = MakeEngine();
  ResultTable expect =
      cold.ExecuteToTable("SELECT ?x WHERE { <Julia> <actedIn> ?x }");
  EXPECT_EQ(Canonicalize(shows), Canonicalize(expect));
  EXPECT_NE(Canonicalize(shows), Canonicalize(friends));
}

TEST_F(PlanCacheEngineTest, DifferentOptionalNestingMisses) {
  Engine engine = MakeEngine();
  QueryStats s1, s2;
  engine.ExecuteToTable(
      "SELECT * WHERE { <Jerry> <hasFriend> ?w . "
      "OPTIONAL { ?w <actedIn> ?s } OPTIONAL { ?s <location> ?l } }",
      &s1);
  engine.ExecuteToTable(
      "SELECT * WHERE { <Jerry> <hasFriend> ?w . "
      "OPTIONAL { ?w <actedIn> ?s OPTIONAL { ?s <location> ?l } } }",
      &s2);
  EXPECT_EQ(s1.plan_cache_misses, 1u);
  EXPECT_EQ(s2.plan_cache_misses, 1u);
  EXPECT_EQ(s2.plan_cache_hits, 0u);
}

TEST_F(PlanCacheEngineTest, ParseErrorsAreNotCached) {
  Engine engine = MakeEngine();
  EXPECT_THROW(engine.ExecuteToTable("SELECT ?x WHERE { ?x }"),
               std::exception);
  EXPECT_THROW(engine.ExecuteToTable("SELECT ?x WHERE { ?x }"),
               std::exception);
  EXPECT_EQ(engine.plan_cache().size(), 0u);
}

TEST_F(PlanCacheEngineTest, ParsedQueryPathBypassesCache) {
  // The ParsedQuery overload has no text to canonicalize; it must not
  // touch the cache.
  Engine engine = MakeEngine();
  QueryStats stats;
  engine.ExecuteToTable(Parser::Parse(SitcomQuery()), &stats);
  EXPECT_EQ(stats.plan_cache_hits, 0u);
  EXPECT_EQ(stats.plan_cache_misses, 0u);
  EXPECT_EQ(engine.plan_cache().size(), 0u);
}

// ---------------------------------------------------------------------------
// Database-level sharing: batch workers and the interactive engine warm the
// same plan cache.

TEST(PlanCacheDatabaseTest, BatchSharesInteractiveCache) {
  Database db = Database::Build([] {
    auto iri = [](const char* v) { return Term::Iri(v); };
    std::vector<TermTriple> triples;
    for (int i = 0; i < 4; ++i) {
      std::string s = "s" + std::to_string(i);
      triples.push_back({iri(s.c_str()), iri("p"), iri("o")});
    }
    return triples;
  }());
  // Interactive query compiles the shape...
  QueryStats stats;
  db.engine().ExecuteToTable("SELECT ?x WHERE { ?x <p> <o> }", &stats);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  // ...batch execution of the same shape (different constants) hits it.
  std::vector<BatchResult> results = db.ExecuteBatch(
      {"SELECT ?x WHERE { ?x <p> <o> }", "SELECT ?y WHERE { ?y <p> <o> }"});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0].stats.plan_cache_hits, 1u);
  EXPECT_EQ(results[0].stats.planning_parses, 0u);
  // Different variable name = different shape: compiled fresh, but into
  // the same shared cache.
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[1].stats.plan_cache_misses, 1u);
  EXPECT_EQ(db.engine().plan_cache().size(), 2u);
}

}  // namespace
}  // namespace lbr
