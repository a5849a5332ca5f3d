#include <gtest/gtest.h>

#include <set>

#include "bitmat/triple_index.h"
#include "core/engine.h"
#include "sparql/parser.h"
#include "sparql/well_designed.h"
#include "workload/dbpedia_gen.h"
#include "workload/lubm_gen.h"
#include "workload/query_sets.h"
#include "workload/table_printer.h"
#include "workload/uniprot_gen.h"

namespace lbr {
namespace {

LubmConfig TinyLubm() {
  LubmConfig cfg;
  cfg.num_universities = 3;
  cfg.departments_per_university = 2;
  cfg.professors_per_department = 4;
  cfg.grad_students_per_department = 8;
  cfg.undergrad_students_per_department = 10;
  return cfg;
}

UniprotConfig TinyUniprot() {
  UniprotConfig cfg;
  cfg.num_proteins = 300;
  return cfg;
}

DbpediaConfig TinyDbpedia() {
  DbpediaConfig cfg;
  cfg.num_places = 100;
  cfg.num_persons = 150;
  cfg.num_soccer_players = 80;
  cfg.num_settlements = 50;
  cfg.num_airports = 20;
  cfg.num_companies = 60;
  cfg.num_noise_predicates = 20;
  cfg.num_noise_triples = 500;
  return cfg;
}

TEST(LubmGenTest, DeterministicForSeed) {
  auto a = GenerateLubm(TinyLubm());
  auto b = GenerateLubm(TinyLubm());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a.back(), b.back());
}

TEST(LubmGenTest, StreamingSinkMatchesVector) {
  // The vector API is a wrapper over the streaming core: a sink must see
  // exactly the same triples in exactly the same order.
  auto vec = GenerateLubm(TinyLubm());
  std::vector<TermTriple> streamed;
  GenerateLubm(TinyLubm(),
               [&streamed](const TermTriple& t) { streamed.push_back(t); });
  EXPECT_EQ(vec, streamed);
}

TEST(LubmGenTest, ScalesWithUniversities) {
  LubmConfig small = TinyLubm();
  LubmConfig large = TinyLubm();
  large.num_universities = 6;
  EXPECT_GT(GenerateLubm(large).size(), GenerateLubm(small).size() * 3 / 2);
}

TEST(LubmGenTest, ContainsExpectedVocabulary) {
  Graph g = Graph::FromTriples(GenerateLubm(TinyLubm()));
  const Dictionary& dict = g.dict();
  for (const char* pred :
       {lubm::kWorksFor, lubm::kAdvisor, lubm::kTakesCourse,
        lubm::kTeacherOf, lubm::kPublicationAuthor, lubm::kMemberOf,
        lubm::kHeadOf, lubm::kSubOrganizationOf}) {
    EXPECT_TRUE(dict.PredicateId(Term::Iri(pred)).has_value()) << pred;
  }
  EXPECT_TRUE(
      dict.ObjectId(Term::Iri(lubm::kFullProfessor)).has_value());
}

TEST(LubmGenTest, OptionalAttributesArePartial) {
  // email/telephone rates in (0,1) must leave some entities without them.
  Graph g = Graph::FromTriples(GenerateLubm(TinyLubm()));
  TripleIndex idx = TripleIndex::Build(g);
  uint32_t works = *g.dict().PredicateId(Term::Iri(lubm::kWorksFor));
  uint32_t email = *g.dict().PredicateId(Term::Iri(lubm::kEmailAddress));
  EXPECT_GT(idx.PredicateCardinality(email), 0u);
  EXPECT_LT(idx.PredicateCardinality(email),
            idx.PredicateCardinality(works) +
                8u * 3u * 2u /* grads with email may exceed profs */ * 10u);
}

TEST(LubmGenTest, DepartmentIriHelperMatchesData) {
  Graph g = Graph::FromTriples(GenerateLubm(TinyLubm()));
  EXPECT_TRUE(g.dict()
                  .ObjectId(Term::Iri(LubmDepartmentIri(0, 0)))
                  .has_value());
}

TEST(UniprotGenTest, Deterministic) {
  auto a = GenerateUniprot(TinyUniprot());
  auto b = GenerateUniprot(TinyUniprot());
  EXPECT_EQ(a.size(), b.size());
}

TEST(UniprotGenTest, NoRdfSubjectTriplesSoQ2IsEmpty) {
  Graph g = Graph::FromTriples(GenerateUniprot(TinyUniprot()));
  EXPECT_FALSE(g.dict()
                   .PredicateId(Term::Iri(uniprot::kSubject))
                   .has_value());
}

TEST(UniprotGenTest, HumanProteinsExist) {
  Graph g = Graph::FromTriples(GenerateUniprot(TinyUniprot()));
  TripleIndex idx = TripleIndex::Build(g);
  auto organism = g.dict().PredicateId(Term::Iri(uniprot::kOrganism));
  auto human = g.dict().ObjectId(Term::Iri(uniprot::kHumanTaxon));
  ASSERT_TRUE(organism && human);
  TripleIndex::SlicePin os = idx.Slice(*organism, TripleIndex::Side::kOS);
  ASSERT_NE(os, nullptr);
  EXPECT_GT(TripleIndex::FindRowIn(os->rows, *human).Count(), 0u);
}

TEST(UniprotGenTest, NoContextEdgesSoQ4SlaveEmpties) {
  Graph g = Graph::FromTriples(GenerateUniprot(TinyUniprot()));
  EXPECT_FALSE(g.dict()
                   .PredicateId(Term::Iri(uniprot::kContext))
                   .has_value());
}

TEST(DbpediaGenTest, Deterministic) {
  auto a = GenerateDbpedia(TinyDbpedia());
  auto b = GenerateDbpedia(TinyDbpedia());
  EXPECT_EQ(a.size(), b.size());
}

TEST(DbpediaGenTest, ManyPredicates) {
  Graph g = Graph::FromTriples(GenerateDbpedia(TinyDbpedia()));
  // Noise predicates inflate |P| well past the core vocabulary.
  EXPECT_GT(g.dict().num_predicates(), 30u);
}

TEST(DbpediaGenTest, Q2AndQ3AreEmptyByConstruction) {
  Graph g = Graph::FromTriples(GenerateDbpedia(TinyDbpedia()));
  TripleIndex idx = TripleIndex::Build(g);
  Engine engine(&idx, &g.dict());
  auto queries = DbpediaQueries();
  QueryStats stats;
  ResultTable q2 = engine.ExecuteToTable(queries[1].sparql, &stats);
  EXPECT_TRUE(q2.rows.empty());
  ResultTable q3 = engine.ExecuteToTable(queries[2].sparql, &stats);
  EXPECT_TRUE(q3.rows.empty());
}

TEST(QuerySetsTest, AllQueriesParseAndAreWellDesigned) {
  for (const auto& [name, queries] :
       std::vector<std::pair<std::string, std::vector<BenchQuery>>>{
           {"lubm", LubmQueries()},
           {"uniprot", UniprotQueries()},
           {"dbpedia", DbpediaQueries()}}) {
    for (const BenchQuery& q : queries) {
      SCOPED_TRACE(name + "/" + q.id);
      ParsedQuery parsed;
      ASSERT_NO_THROW(parsed = Parser::Parse(q.sparql));
      EXPECT_TRUE(IsWellDesigned(*parsed.body));
      EXPECT_TRUE(parsed.select_all);
    }
  }
}

TEST(QuerySetsTest, ExpectedCounts) {
  EXPECT_EQ(LubmQueries().size(), 6u);
  EXPECT_EQ(UniprotQueries().size(), 7u);
  EXPECT_EQ(DbpediaQueries().size(), 6u);
}

TEST(QuerySetsTest, LubmQ1HasCyclicGojWithSingleJvarSlaves) {
  // Table 6.2: Q1-Q3 are cyclic but avoid best-match (Lemma 3.4).
  Graph g = Graph::FromTriples(GenerateLubm(TinyLubm()));
  TripleIndex idx = TripleIndex::Build(g);
  Engine engine(&idx, &g.dict());
  QueryStats stats;
  engine.ExecuteToTable(LubmQueries()[0].sparql, &stats);
  EXPECT_TRUE(stats.goj_cyclic);
  EXPECT_FALSE(stats.best_match_used);
}

TEST(QuerySetsTest, LubmQ4RequiresBestMatch) {
  Graph g = Graph::FromTriples(GenerateLubm(TinyLubm()));
  TripleIndex idx = TripleIndex::Build(g);
  Engine engine(&idx, &g.dict());
  QueryStats stats;
  // Q4 targets Department1.University9 which may not exist at tiny scale;
  // patch the department to one that exists.
  std::string q = LubmQueries()[3].sparql;
  std::string from = "<http://lubm/Department1.University9>";
  std::string to = "<" + LubmDepartmentIri(1, 1) + ">";
  q.replace(q.find(from), from.size(), to);
  engine.ExecuteToTable(q, &stats);
  EXPECT_TRUE(stats.goj_cyclic);
  EXPECT_TRUE(stats.best_match_used);
}

TEST(TablePrinterTest, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::Count(0), "0");
  EXPECT_EQ(TablePrinter::Count(999), "999");
  EXPECT_EQ(TablePrinter::Count(1000), "1,000");
  EXPECT_EQ(TablePrinter::Count(1234567), "1,234,567");
  EXPECT_EQ(TablePrinter::Seconds(1.23456), "1.234560");
  EXPECT_EQ(TablePrinter::Seconds(4.2e-5), "0.000042");
  EXPECT_EQ(TablePrinter::YesNo(true), "Yes");
  EXPECT_EQ(TablePrinter::YesNo(false), "No");
}

TEST(TablePrinterTest, PrintDoesNotCrash) {
  TablePrinter tp({"a", "bb"});
  tp.AddRow({"1", "2"});
  tp.AddRow({"333"});  // short row padded
  tp.Print("title");
}

}  // namespace
}  // namespace lbr
