#include "core/engine.h"

#include <gtest/gtest.h>

#include "baseline/reference_evaluator.h"
#include "bitmat/tp_loader.h"
#include "bitmat/triple_index.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "workload/lubm_gen.h"
#include "workload/query_sets.h"

namespace lbr {
namespace {

using testing::Canonicalize;
using testing::CanonicalizeProjected;
using testing::MakeGraph;

struct EngineFixture {
  Graph graph;
  TripleIndex index;
  Engine engine;

  EngineFixture(Graph g, EngineOptions options = {})
      : graph(std::move(g)),
        index(TripleIndex::Build(graph)),
        engine(&index, &graph.dict(), options) {}

  ResultTable Run(const std::string& query, QueryStats* stats = nullptr) {
    return engine.ExecuteToTable(query, stats);
  }

  void ExpectMatchesOracle(const std::string& query) {
    ParsedQuery q = Parser::Parse(query);
    ReferenceEvaluator oracle(&graph);
    ResultTable expected = oracle.Execute(q);
    ResultTable got = engine.ExecuteToTable(q);
    EXPECT_EQ(CanonicalizeProjected(got, expected.var_names),
              Canonicalize(expected))
        << query;
  }
};

TEST(EngineTest, BgpOnlyQuery) {
  EngineFixture f(MakeGraph({
      {"a", "p", "b"},
      {"b", "q", "c"},
      {"x", "p", "y"},
  }));
  ResultTable t = f.Run("SELECT * WHERE { ?s <p> ?t . ?t <q> ?u . }");
  ASSERT_EQ(t.rows.size(), 1u);
  f.ExpectMatchesOracle("SELECT * WHERE { ?s <p> ?t . ?t <q> ?u . }");
}

TEST(EngineTest, ProjectionSelectsSubset) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}, {"a", "p", "c"}}));
  ResultTable t = f.Run("SELECT ?s WHERE { ?s <p> ?o . }");
  ASSERT_EQ(t.var_names, (std::vector<std::string>{"s"}));
  // Bag semantics: the two bindings of ?o produce two identical ?s rows.
  EXPECT_EQ(t.rows.size(), 2u);
}

TEST(EngineTest, EmptyAbsoluteMasterAbortsEarly) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}}));
  QueryStats stats;
  ResultTable t =
      f.Run("SELECT * WHERE { ?s <nosuch> ?o . OPTIONAL { ?o <p> ?x . } }",
            &stats);
  EXPECT_TRUE(t.rows.empty());
  EXPECT_TRUE(stats.empty_result_shortcut);
  EXPECT_EQ(stats.termination, QueryTermination::kOk);
}

TEST(EngineTest, SlaveGroupFailsAsUnit) {
  // ActorC pattern: email present, telephone missing -> both NULL.
  EngineFixture f(MakeGraph({
      {"c", "name", "\"C\""},
      {"c", "email", "\"c@x\""},
  }));
  ResultTable t = f.Run(
      "SELECT * WHERE { ?a <name> ?n . "
      "OPTIONAL { ?a <email> ?e . ?a <telephone> ?t . } }");
  ASSERT_EQ(t.rows.size(), 1u);
  int e_col = 1;  // projection sorted: a, e, n, t
  ASSERT_EQ(t.var_names,
            (std::vector<std::string>{"a", "e", "n", "t"}));
  EXPECT_FALSE(t.rows[0][e_col].has_value());
  EXPECT_FALSE(t.rows[0][3].has_value());
}

TEST(EngineTest, CyclicQueryUsesBestMatch) {
  // Triangle in the slave with 2+ jvars: Lemma 3.4 does not apply.
  EngineFixture f(MakeGraph({
      {"x1", "worksFor", "d"},
      {"y1", "advisor", "x1"},
      {"x1", "teacherOf", "z1"},
      {"y1", "takesCourse", "z1"},
      {"y2", "advisor", "x1"},
      {"y2", "takesCourse", "z9"},  // y2 takes an unrelated course
  }));
  const std::string query =
      "SELECT * WHERE { ?x <worksFor> <d> . "
      "OPTIONAL { ?y <advisor> ?x . ?x <teacherOf> ?z . "
      "?y <takesCourse> ?z . } }";
  QueryStats stats;
  ResultTable t = f.Run(query, &stats);
  EXPECT_TRUE(stats.goj_cyclic);
  EXPECT_TRUE(stats.best_match_used);
  f.ExpectMatchesOracle(query);
  // Exactly one result: (x1, y1, z1); the y2 attempt is subsumed.
  ASSERT_EQ(t.rows.size(), 1u);
}

TEST(EngineTest, CyclicOneJvarPerSlaveSkipsBestMatch) {
  // Lemma 3.4's escape hatch: cyclic GoJ but each slave supernode has only
  // one join variable.
  EngineFixture f(MakeGraph({
      {"a", "p", "b"},
      {"b", "q", "a"},
      {"a", "r", "x"},
  }));
  const std::string query =
      "SELECT * WHERE { ?s <p> ?t . ?t <q> ?s . OPTIONAL { ?s <r> ?w . } }";
  QueryStats stats;
  f.Run(query, &stats);
  EXPECT_TRUE(stats.goj_cyclic);
  EXPECT_FALSE(stats.best_match_used);
  f.ExpectMatchesOracle(query);
}

TEST(EngineTest, NonWellDesignedTakesAppendixBPath) {
  EngineFixture f(MakeGraph({
      {"a", "p", "b"},
      {"b", "q", "c"},
      {"c", "r", "d"},
  }));
  QueryStats stats;
  ResultTable t = f.Run(
      "SELECT * WHERE { { ?a <p> ?b . OPTIONAL { ?b <q> ?c . } } "
      "{ ?c <r> ?d . } }",
      &stats);
  EXPECT_FALSE(stats.well_designed);
  // Under the null-intolerant conversion everything becomes an inner join:
  // the single chain row survives.
  ASSERT_EQ(t.rows.size(), 1u);
  for (const auto& cell : t.rows[0]) EXPECT_TRUE(cell.has_value());
}

TEST(EngineTest, CartesianProductRejected) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}, {"c", "q", "d"}}));
  EXPECT_THROW(f.Run("SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . }"),
               UnsupportedQueryError);
}

TEST(EngineTest, AllVariableTpRejected) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}}));
  EXPECT_THROW(f.Run("SELECT * WHERE { ?s ?p ?o . }"),
               UnsupportedQueryError);
}

TEST(EngineTest, PredicateEntityJoinRejected) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}, {"p", "q", "c"}}));
  EXPECT_THROW(
      f.Run("SELECT * WHERE { ?a ?j ?b . ?j <q> ?c . }"),
      UnsupportedQueryError);
}

TEST(EngineTest, VariablePredicateSupportedWhenUnjoined) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}, {"a", "q", "c"}}));
  ResultTable t = f.Run("SELECT * WHERE { <a> ?pred ?o . }");
  EXPECT_EQ(t.rows.size(), 2u);
  f.ExpectMatchesOracle("SELECT * WHERE { <a> ?pred ?o . }");
}

TEST(EngineTest, UnionConcatenatesBags) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}}));
  ResultTable t = f.Run(
      "SELECT * WHERE { { ?x <p> ?y . } UNION { ?x <p> ?y . } }");
  EXPECT_EQ(t.rows.size(), 2u);  // duplicate kept (bag semantics)
  QueryStats stats;
  f.Run("SELECT * WHERE { { ?x <p> ?y . } UNION { ?x <p> ?y . } }", &stats);
  EXPECT_EQ(stats.num_union_branches, 2);
}

TEST(EngineTest, FilterOnMasterDropsRows) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}, {"c", "p", "d"}}));
  ResultTable t =
      f.Run("SELECT * WHERE { ?x <p> ?y . FILTER (?x = <a>) }");
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows[0][0]->value, "a");
}

TEST(EngineTest, VarEqualityFilterEliminated) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}, {"b", "q", "b"}}));
  f.ExpectMatchesOracle(
      "SELECT * WHERE { ?m <p> ?x . ?n <q> ?x . FILTER (?m = ?n) }");
}

TEST(EngineTest, StatsTimingsArePopulated) {
  EngineFixture f(testing::SitcomGraph());
  QueryStats stats;
  f.Run(testing::SitcomQuery(), &stats);
  EXPECT_GE(stats.t_init_sec, 0.0);
  EXPECT_GE(stats.t_prune_sec, 0.0);
  EXPECT_GE(stats.t_total_sec, stats.t_init_sec + stats.t_prune_sec);
  EXPECT_GT(stats.t_join_sec, 0.0);
  EXPECT_GE(stats.t_best_match_sec, 0.0);
  EXPECT_GE(stats.t_project_sec, 0.0);
  EXPECT_GE(stats.t_total_sec,
            stats.t_plan_sec + stats.t_init_sec + stats.t_prune_sec +
                stats.t_join_sec + stats.t_best_match_sec +
                stats.t_project_sec);
  EXPECT_EQ(stats.num_supernodes, 2);
}

TEST(EngineTest, StatsCountTheJoinsColumnAccess) {
  // LUBM Q1 looks a TP up by column: over one university the join extracts
  // a column lazily, then the cost rule transposes. The counters are per
  // query: an identical rerun reports the same figures, not a running sum.
  LubmConfig config;
  config.num_universities = 1;
  Graph graph = Graph::FromTriples(GenerateLubm(config));
  TripleIndex index = TripleIndex::Build(graph);
  Engine engine(&index, &graph.dict());
  const std::string q1 = LubmQueries().front().sparql;
  QueryStats first, second;
  engine.ExecuteToTable(q1, &first);
  engine.ExecuteToTable(q1, &second);
  EXPECT_EQ(first.join_columns_extracted, 1u);
  EXPECT_GT(first.join_rows_scanned, 0u);
  EXPECT_EQ(first.join_transposes, 1u);
  EXPECT_EQ(second.join_columns_extracted, first.join_columns_extracted);
  EXPECT_EQ(second.join_rows_scanned, first.join_rows_scanned);
  EXPECT_EQ(second.join_transposes, first.join_transposes);
}

// Zero-width answers: an all-constant pattern binds no variable, so its
// answer is one empty mapping when the triple exists and none when it does
// not. The row count cannot be derived from the (empty) bindings.
TEST(EngineTest, AllConstantPatternYieldsOneEmptyRow) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}, {"b", "q", "x"}}));
  const std::string query = "SELECT * WHERE { <a> <p> <b> }";
  ResultTable t = f.Run(query);
  EXPECT_TRUE(t.var_names.empty());
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_TRUE(t.rows[0].empty());
  f.ExpectMatchesOracle(query);
  size_t sunk = 0;
  EXPECT_EQ(f.engine.Execute(query,
                             [&sunk](const RawRow& row) {
                               EXPECT_TRUE(row.empty());
                               ++sunk;
                             }),
            1u);
  EXPECT_EQ(sunk, 1u);
}

TEST(EngineTest, AbsentAllConstantPatternYieldsNoRow) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}, {"b", "q", "x"}}));
  for (const std::string query : {"SELECT * WHERE { <a> <p> <x> }",
                                  "SELECT * WHERE { <a> <q> <b> }"}) {
    EXPECT_TRUE(f.Run(query).rows.empty()) << query;
    f.ExpectMatchesOracle(query);
  }
}

TEST(EngineTest, AllConstantOptionalKeepsTheRow) {
  // The OPTIONAL triple absent, then present: one empty row either way.
  for (const char* c : {"c", "x"}) {
    EngineFixture f(MakeGraph({{"a", "p", "b"}, {"b", "q", "x"}}));
    const std::string query =
        std::string("SELECT * WHERE { <a> <p> <b> OPTIONAL { <b> <q> <") + c +
        "> } }";
    ResultTable t = f.Run(query);
    ASSERT_EQ(t.rows.size(), 1u) << query;
    EXPECT_TRUE(t.rows[0].empty());
    f.ExpectMatchesOracle(query);
  }
}

TEST(EngineTest, LoadChargesWhatTheTpHolds) {
  // One TP, no join column, no best-match: the query's memory charge is
  // the loaded BitMat's arrays and row objects plus its arena payload (the
  // rows view the mapped index here, so none), and the cells of the full
  // and the projected result rows.
  EngineFixture f(MakeGraph({{"a", "p", "b"}, {"a", "p", "c"},
                             {"b", "p", "c"}, {"c", "q", "a"}}));
  TriplePattern tp(PatternTerm::Var("s"), PatternTerm::Fixed(Term::Iri("p")),
                   PatternTerm::Var("o"));
  const TpBitMat loaded = LoadTpBitMat(f.index, f.graph.dict(), tp, true);
  const uint64_t held = loaded.bm.HeapBytes() + loaded.bm.ArenaBytes();
  EXPECT_GT(held, 2 * sizeof(CompressedRow));
  QueryControl control;
  ResultTable t = f.engine.ExecuteToTable("SELECT * WHERE { ?s <p> ?o }",
                                          nullptr, &control);
  ASSERT_EQ(t.rows.size(), 3u);
  const uint64_t cells = 3 * 2 * sizeof(uint64_t);
  EXPECT_EQ(control.memory_used(), held + 2 * cells);
}

TEST(EngineTest, DisabledPruningStillCorrect) {
  EngineOptions options;
  options.enable_prune = false;
  EngineFixture f(testing::SitcomGraph(), options);
  ParsedQuery q = Parser::Parse(testing::SitcomQuery());
  ReferenceEvaluator oracle(&f.graph);
  ResultTable expected = oracle.Execute(q);
  ResultTable got = f.engine.ExecuteToTable(q);
  EXPECT_EQ(CanonicalizeProjected(got, expected.var_names),
            Canonicalize(expected));
}

// Turning pruning off turns off both of its halves: no active-pruning masks
// during init and no prune_triples. The query has no diagonal TP, so its
// estimates are exact counts, and the default engine prunes some of them.
TEST(EngineTest, DisabledPruningLoadsEveryMatchingTriple) {
  ParsedQuery q = Parser::Parse(testing::SitcomQuery());
  QueryStats pruned;
  EngineFixture(testing::SitcomGraph()).engine.ExecuteToTable(q, &pruned);
  ASSERT_LT(pruned.triples_after_prune, pruned.initial_triples);

  EngineOptions options;
  options.enable_prune = false;
  EngineFixture f(testing::SitcomGraph(), options);
  QueryStats unpruned;
  f.engine.ExecuteToTable(q, &unpruned);
  EXPECT_EQ(unpruned.initial_triples, pruned.initial_triples);
  EXPECT_EQ(unpruned.triples_after_prune, unpruned.initial_triples);
}

TEST(EngineTest, RowSinkStreamsProjectedRows) {
  EngineFixture f(MakeGraph({{"a", "p", "b"}}));
  ParsedQuery q = Parser::Parse("SELECT ?y WHERE { ?x <p> ?y . }");
  size_t rows = 0;
  uint64_t n = f.engine.Execute(q, [&rows](const RawRow& row) {
    EXPECT_EQ(row.size(), 1u);
    ++rows;
  });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(rows, 1u);
}

TEST(EngineTest, LiteralObjectsRoundTrip) {
  EngineFixture f(MakeGraph({{"b", "modified", "\"2008-01-15\""}}));
  ResultTable t =
      f.Run("SELECT * WHERE { ?b <modified> \"2008-01-15\" . }");
  ASSERT_EQ(t.rows.size(), 1u);
}

TEST(EngineTest, DeepOptionalChain) {
  EngineFixture f(MakeGraph({
      {"a", "p", "b"},
      {"b", "q", "c"},
      {"c", "r", "d"},
      {"a2", "p", "b2"},
      {"b2", "q", "c2"},
      {"a3", "p", "b3"},
  }));
  const std::string query =
      "SELECT * WHERE { ?v0 <p> ?v1 . OPTIONAL { ?v1 <q> ?v2 . "
      "OPTIONAL { ?v2 <r> ?v3 . } } }";
  f.ExpectMatchesOracle(query);
  ResultTable t = f.Run(query);
  EXPECT_EQ(t.rows.size(), 3u);
}

}  // namespace
}  // namespace lbr
