// Cross-module integration tests: the three workload generators feed the
// full index + engine pipeline, and the LBR engine, the pairwise baseline,
// and (at tiny scale) the reference evaluator must agree on the Appendix E
// query sets. Also covers the index persistence round trip at workload
// scale and the evaluation-metric invariants of Section 6.1.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "baseline/pairwise_engine.h"
#include "baseline/reference_evaluator.h"
#include "bitmat/triple_index.h"
#include "core/database.h"
#include "core/engine.h"
#include "rdf/ntriples.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "workload/dbpedia_gen.h"
#include "workload/lubm_gen.h"
#include "workload/query_sets.h"
#include "workload/uniprot_gen.h"

namespace lbr {
namespace {

using testing::Canonicalize;
using testing::CanonicalizeProjected;

struct Stack {
  Graph graph;
  TripleIndex index;
  Engine engine;
  PairwiseEngine baseline;

  explicit Stack(std::vector<TermTriple> triples)
      : graph(Graph::FromTriples(triples)),
        index(TripleIndex::Build(graph)),
        engine(&index, &graph.dict()),
        baseline(&index, &graph.dict()) {}

  void ExpectEnginesAgree(const std::string& id, const std::string& sparql) {
    SCOPED_TRACE(id);
    ParsedQuery q = Parser::Parse(sparql);
    ResultTable expected = baseline.ExecuteToTable(q);
    QueryStats stats;
    ResultTable got = engine.ExecuteToTable(q, &stats);
    EXPECT_EQ(got.rows.size(), expected.rows.size());
    EXPECT_EQ(CanonicalizeProjected(got, expected.var_names),
              Canonicalize(expected));
    // Metric invariants (Section 6.1): pruning never grows the triple sets;
    // null-bearing results never exceed the total.
    EXPECT_LE(stats.triples_after_prune, stats.initial_triples);
    EXPECT_LE(stats.num_results_with_nulls, stats.num_results);
  }
};

LubmConfig TinyLubm() {
  LubmConfig cfg;
  cfg.num_universities = 2;
  cfg.departments_per_university = 2;
  cfg.professors_per_department = 3;
  cfg.grad_students_per_department = 6;
  cfg.undergrad_students_per_department = 8;
  return cfg;
}

TEST(IntegrationTest, LubmQueriesAgreeWithPairwiseBaseline) {
  Stack stack(GenerateLubm(TinyLubm()));
  for (const BenchQuery& q : LubmQueries()) {
    // Q4/Q5 reference departments that exist only at larger scale; patch
    // Q4-style department IRIs to in-scale ones.
    std::string sparql = q.sparql;
    for (const std::string& missing :
         {std::string("<http://lubm/Department1.University9>"),
          std::string("<http://lubm/Department0.University12>")}) {
      size_t at = sparql.find(missing);
      if (at != std::string::npos) {
        sparql.replace(at, missing.size(),
                       "<" + LubmDepartmentIri(1, 0) + ">");
      }
    }
    stack.ExpectEnginesAgree("lubm/" + q.id, sparql);
  }
}

TEST(IntegrationTest, UniprotQueriesAgreeWithPairwiseBaseline) {
  UniprotConfig cfg;
  cfg.num_proteins = 200;
  Stack stack(GenerateUniprot(cfg));
  for (const BenchQuery& q : UniprotQueries()) {
    stack.ExpectEnginesAgree("uniprot/" + q.id, q.sparql);
  }
}

TEST(IntegrationTest, DbpediaQueriesAgreeWithPairwiseBaseline) {
  DbpediaConfig cfg;
  cfg.num_places = 60;
  cfg.num_persons = 80;
  cfg.num_soccer_players = 40;
  cfg.num_settlements = 30;
  cfg.num_airports = 12;
  cfg.num_companies = 40;
  cfg.num_noise_predicates = 10;
  cfg.num_noise_triples = 200;
  Stack stack(GenerateDbpedia(cfg));
  for (const BenchQuery& q : DbpediaQueries()) {
    stack.ExpectEnginesAgree("dbpedia/" + q.id, q.sparql);
  }
}

TEST(IntegrationTest, ReferenceOracleAgreesAtMicroScale) {
  // The cubic-cost oracle can only arbitrate small data; one micro LUBM.
  LubmConfig cfg;
  cfg.num_universities = 1;
  cfg.departments_per_university = 1;
  cfg.professors_per_department = 2;
  cfg.grad_students_per_department = 3;
  cfg.undergrad_students_per_department = 2;
  cfg.publications_per_professor = 1;
  Stack stack(GenerateLubm(cfg));
  ReferenceEvaluator oracle(&stack.graph);
  for (const BenchQuery& q : {LubmQueries()[0], LubmQueries()[5]}) {
    std::string sparql = q.sparql;
    const std::string missing = "<http://lubm/Department0.University12>";
    size_t at = sparql.find(missing);
    if (at != std::string::npos) {
      sparql.replace(at, missing.size(), "<" + LubmDepartmentIri(0, 0) + ">");
    }
    ParsedQuery parsed = Parser::Parse(sparql);
    ResultTable expected = oracle.Execute(parsed);
    ResultTable got = stack.engine.ExecuteToTable(parsed);
    EXPECT_EQ(CanonicalizeProjected(got, expected.var_names),
              Canonicalize(expected))
        << q.id;
  }
}

TEST(IntegrationTest, IndexPersistenceAtWorkloadScale) {
  Database db = Database::Build(GenerateLubm(TinyLubm()));
  std::string path = testing::TempPath("lbr_integration_index.snap");
  db.SaveSnapshot(path);
  Database reopened = Database::OpenSnapshot(path);
  std::remove(path.c_str());

  // The reopened snapshot answers queries identically.
  const std::string q =
      "PREFIX ub: <http://lubm/> SELECT * WHERE { ?x ub:worksFor ?d . "
      "OPTIONAL { ?x ub:emailAddress ?e . } }";
  ResultTable a = db.engine().ExecuteToTable(q);
  ResultTable b = reopened.engine().ExecuteToTable(q);
  EXPECT_EQ(Canonicalize(a), Canonicalize(b));
  EXPECT_FALSE(a.rows.empty());
}

TEST(IntegrationTest, ActivePruningDetectsEmptyEarly) {
  // UniProt Q2 shape: the engine must abort before the join phase.
  UniprotConfig cfg;
  cfg.num_proteins = 100;
  Stack stack(GenerateUniprot(cfg));
  QueryStats stats;
  ResultTable t =
      stack.engine.ExecuteToTable(UniprotQueries()[1].sparql, &stats);
  EXPECT_TRUE(t.rows.empty());
  EXPECT_TRUE(stats.empty_result_shortcut);
  EXPECT_EQ(stats.termination, QueryTermination::kOk);
}

TEST(IntegrationTest, PruningShrinksLowSelectivityQueries) {
  Stack stack(GenerateLubm(TinyLubm()));
  QueryStats stats;
  stack.engine.ExecuteToTable(LubmQueries()[0].sparql, &stats);
  // Q1 touches broad predicates; pruning must remove a meaningful share.
  EXPECT_LT(stats.triples_after_prune, stats.initial_triples);
}

TEST(IntegrationTest, NTriplesExportImportRoundTrip) {
  std::vector<TermTriple> triples = GenerateUniprot([] {
    UniprotConfig cfg;
    cfg.num_proteins = 50;
    return cfg;
  }());
  std::ostringstream out;
  NTriples::WriteStream(triples, &out);
  std::istringstream in(out.str());
  std::vector<TermTriple> back = NTriples::ParseStream(&in);
  ASSERT_EQ(back.size(), triples.size());
  Graph g1 = Graph::FromTriples(triples);
  Graph g2 = Graph::FromTriples(back);
  EXPECT_EQ(g1.num_triples(), g2.num_triples());
}

}  // namespace
}  // namespace lbr
