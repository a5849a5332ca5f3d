#include "core/database.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/result_writer.h"
#include "rdf/ntriples.h"
#include "test_util.h"
#include "workload/lubm_gen.h"

namespace lbr {
namespace {

std::vector<TermTriple> SitcomTriples() {
  Graph graph = testing::SitcomGraph();
  std::vector<TermTriple> out;
  out.reserve(graph.num_triples());
  for (const Triple& t : graph.triples()) {
    out.push_back(graph.dict().Decode(t));
  }
  return out;
}

TEST(DictionarySerdeTest, RoundTrip) {
  Graph g = testing::MakeGraph({
      {"a", "p", "b"},
      {"b", "q", "\"lit with spaces\""},
      {"_:blank", "p", "a"},
  });
  std::stringstream ss;
  g.dict().WriteTo(&ss);
  Dictionary back = Dictionary::ReadFrom(&ss);

  EXPECT_EQ(back.num_subjects(), g.dict().num_subjects());
  EXPECT_EQ(back.num_predicates(), g.dict().num_predicates());
  EXPECT_EQ(back.num_objects(), g.dict().num_objects());
  EXPECT_EQ(back.num_common(), g.dict().num_common());
  // Every encoded triple decodes identically through the reloaded dict.
  for (const Triple& t : g.triples()) {
    EXPECT_EQ(back.Decode(t), g.dict().Decode(t));
    EXPECT_EQ(back.Encode(g.dict().Decode(t)), t);
  }
}

TEST(DictionarySerdeTest, RejectsBadMagic) {
  std::stringstream ss;
  ss << "garbage bytes here";
  EXPECT_THROW(Dictionary::ReadFrom(&ss), std::runtime_error);
}

TEST(DatabaseTest, BuildAndQuery) {
  Database db = Database::Build(SitcomTriples());
  ResultTable t = db.engine().ExecuteToTable(testing::SitcomQuery());
  EXPECT_EQ(t.rows.size(), 2u);
  EXPECT_GT(db.num_triples(), 0u);
}

TEST(DatabaseTest, SaveOpenRoundTrip) {
  std::string path = testing::TempPath("lbr_db_test.lbr");
  {
    Database db = Database::Build(SitcomTriples());
    db.SaveSnapshot(path);
  }
  Database reopened = Database::OpenSnapshot(path);
  std::remove(path.c_str());
  ResultTable t = reopened.engine().ExecuteToTable(testing::SitcomQuery());
  auto canon = testing::Canonicalize(t);
  ASSERT_EQ(canon.size(), 2u);
  EXPECT_EQ(canon[0], "friend=<Julia>|sitcom=<Seinfeld>|");
  EXPECT_EQ(canon[1], "friend=<Larry>|sitcom=NULL|");
}

TEST(DatabaseTest, BuildFromNTriplesFile) {
  std::string path = testing::TempPath("lbr_db_test.nt");
  {
    std::ofstream out(path);
    NTriples::WriteStream(SitcomTriples(), &out);
  }
  Database db = Database::BuildFromNTriples(path);
  std::remove(path.c_str());
  EXPECT_EQ(db.engine().ExecuteToTable(testing::SitcomQuery()).rows.size(),
            2u);
}

TEST(DatabaseTest, OpenRejectsNonDatabase) {
  // A file in the retired eager format (magic LBRDBF01) is not a snapshot.
  std::string path = testing::TempPath("lbr_not_a_db.lbr");
  {
    std::ofstream out(path, std::ios::binary);
    out << "LBRDBF01 and the rest of a retired database file";
  }
  try {
    Database::OpenSnapshot(path);
    ADD_FAILURE() << "OpenSnapshot accepted a non-snapshot file";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kBadMagic);
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, WorkloadScaleRoundTrip) {
  LubmConfig cfg;
  cfg.num_universities = 2;
  Database db = Database::Build(GenerateLubm(cfg));
  std::string path = testing::TempPath("lbr_db_lubm.lbr");
  db.SaveSnapshot(path);
  Database reopened = Database::OpenSnapshot(path);
  std::remove(path.c_str());

  const std::string q =
      "PREFIX ub: <http://lubm/> SELECT * WHERE { ?x ub:worksFor ?d . "
      "OPTIONAL { ?x ub:emailAddress ?e . } }";
  EXPECT_EQ(testing::Canonicalize(db.engine().ExecuteToTable(q)),
            testing::Canonicalize(reopened.engine().ExecuteToTable(q)));
}

TEST(ResultWriterTest, CsvFormat) {
  Database db = Database::Build(SitcomTriples());
  ResultTable t = db.engine().ExecuteToTable(testing::SitcomQuery());
  std::string csv = ResultWriter::ToCsv(t);
  EXPECT_NE(csv.find("friend,sitcom\r\n"), std::string::npos);
  EXPECT_NE(csv.find("Julia,Seinfeld\r\n"), std::string::npos);
  // Unbound -> empty field.
  EXPECT_NE(csv.find("Larry,\r\n"), std::string::npos);
}

TEST(ResultWriterTest, CsvEscaping) {
  ResultTable t;
  t.var_names = {"v"};
  t.rows.push_back({Term::Literal("a,b \"quoted\"\nline")});
  std::string csv = ResultWriter::ToCsv(t);
  EXPECT_NE(csv.find("\"a,b \"\"quoted\"\"\nline\""), std::string::npos);
}

TEST(ResultWriterTest, TsvFormat) {
  Database db = Database::Build(SitcomTriples());
  ResultTable t = db.engine().ExecuteToTable(testing::SitcomQuery());
  std::string tsv = ResultWriter::ToTsv(t);
  EXPECT_NE(tsv.find("?friend\t?sitcom\n"), std::string::npos);
  EXPECT_NE(tsv.find("<Julia>\t<Seinfeld>\n"), std::string::npos);
  EXPECT_NE(tsv.find("<Larry>\t\n"), std::string::npos);
}

TEST(ResultWriterTest, TsvLiteralEscapes) {
  ResultTable t;
  t.var_names = {"v"};
  t.rows.push_back({Term::Literal("tab\there\nnewline")});
  std::string tsv = ResultWriter::ToTsv(t);
  EXPECT_NE(tsv.find("\"tab\\there\\nnewline\""), std::string::npos);
}

TEST(ResultWriterTest, BlankNodeForms) {
  ResultTable t;
  t.var_names = {"v"};
  t.rows.push_back({Term::Blank("n1")});
  EXPECT_NE(ResultWriter::ToCsv(t).find("_:n1"), std::string::npos);
  EXPECT_NE(ResultWriter::ToTsv(t).find("_:n1"), std::string::npos);
}

}  // namespace
}  // namespace lbr
