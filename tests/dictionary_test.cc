#include "rdf/dictionary.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/database.h"
#include "rdf/graph.h"
#include "test_util.h"
#include "util/checksum.h"
#include "workload/dbpedia_gen.h"
#include "workload/lubm_gen.h"
#include "workload/uniprot_gen.h"

namespace lbr {
namespace {

using testing::T;

Dictionary DictOf(const std::vector<TermTriple>& triples) {
  return Graph::FromTriples(triples).dict();
}

TEST(DictionaryTest, VsoMappingSharesLowIds) {
  // b and c occur as both subject and object (Vso); a is subject-only;
  // d is object-only.
  Dictionary dict =
      DictOf({T("a", "p", "b"), T("b", "p", "c"), T("c", "p", "d")});

  EXPECT_EQ(dict.num_common(), 2u);    // {b, c}
  EXPECT_EQ(dict.num_subjects(), 3u);  // {a, b, c}
  EXPECT_EQ(dict.num_objects(), 3u);   // {b, c, d}
  EXPECT_EQ(dict.num_predicates(), 1u);

  // Common values get the same ID on both dimensions, below |Vso|.
  for (const char* name : {"b", "c"}) {
    auto s = dict.SubjectId(Term::Iri(name));
    auto o = dict.ObjectId(Term::Iri(name));
    ASSERT_TRUE(s && o);
    EXPECT_EQ(*s, *o);
    EXPECT_LT(*s, dict.num_common());
  }
  // Subject-only and object-only values sit above the Vso range.
  EXPECT_GE(*dict.SubjectId(Term::Iri("a")), dict.num_common());
  EXPECT_GE(*dict.ObjectId(Term::Iri("d")), dict.num_common());
}

TEST(DictionaryTest, UnknownTermsReturnNullopt) {
  Dictionary dict = DictOf({T("a", "p", "b")});
  EXPECT_FALSE(dict.SubjectId(Term::Iri("zzz")).has_value());
  EXPECT_FALSE(dict.PredicateId(Term::Iri("zzz")).has_value());
  EXPECT_FALSE(dict.ObjectId(Term::Iri("zzz")).has_value());
  // "b" never occurs as a subject.
  EXPECT_FALSE(dict.SubjectId(Term::Iri("b")).has_value());
  // "a" never occurs as an object.
  EXPECT_FALSE(dict.ObjectId(Term::Iri("a")).has_value());
}

TEST(DictionaryTest, EncodeDecodeRoundTrip) {
  TermTriple t1 = T("s1", "p1", "\"lit\"");
  TermTriple t2 = T("s1", "p2", "s1");  // s1 in Vso
  Dictionary dict = DictOf({t1, t2});

  for (const TermTriple& t : {t1, t2}) {
    Triple enc = dict.Encode(t);
    TermTriple dec = dict.Decode(enc);
    EXPECT_EQ(dec, t);
  }
}

TEST(DictionaryTest, EncodeThrowsOnUnknown) {
  Dictionary dict = DictOf({T("a", "p", "b")});
  EXPECT_THROW(dict.Encode(T("nope", "p", "b")), std::invalid_argument);
}

TEST(DictionaryTest, LiteralsAndIrisAreDistinctTerms) {
  // The literal "x" and the IRI x must get different object IDs.
  Dictionary dict = DictOf({T("s", "p", "\"x\""), T("s", "p", "x")});
  auto lit = dict.ObjectId(Term::Literal("x"));
  auto iri = dict.ObjectId(Term::Iri("x"));
  ASSERT_TRUE(lit && iri);
  EXPECT_NE(*lit, *iri);
}

TEST(DictionaryTest, BlankNodesAreEntities) {
  // Blank nodes join like IRIs (Section 2.2: they are not NULLs).
  Dictionary dict = DictOf({T("_:b0", "p", "o"), T("s", "p", "_:b0")});
  auto s = dict.SubjectId(Term::Blank("b0"));
  auto o = dict.ObjectId(Term::Blank("b0"));
  ASSERT_TRUE(s && o);
  EXPECT_EQ(*s, *o);  // _:b0 is in Vso
  EXPECT_LT(*s, dict.num_common());
}

TEST(DictionaryTest, DeterministicAcrossInsertionOrders) {
  TermTriple a = T("x", "p", "y");
  TermTriple b = T("y", "q", "z");
  Dictionary d1 = DictOf({a, b});
  Dictionary d2 = DictOf({b, a});
  EXPECT_EQ(d1.SubjectId(Term::Iri("x")), d2.SubjectId(Term::Iri("x")));
  EXPECT_EQ(d1.ObjectId(Term::Iri("z")), d2.ObjectId(Term::Iri("z")));
  EXPECT_EQ(d1.PredicateId(Term::Iri("q")), d2.PredicateId(Term::Iri("q")));
  // The sections themselves are byte-identical.
  ASSERT_EQ(d1.size(), d2.size());
  EXPECT_EQ(Checksum64(d1.data(), d1.size()), Checksum64(d2.data(), d2.size()));
}

TEST(DictionaryTest, PredicatesGetDenseIds) {
  Dictionary dict =
      DictOf({T("a", "p1", "b"), T("a", "p2", "b"), T("a", "p3", "b")});
  std::set<uint32_t> ids;
  for (const char* p : {"p1", "p2", "p3"}) {
    auto id = dict.PredicateId(Term::Iri(p));
    ASSERT_TRUE(id.has_value());
    EXPECT_LT(*id, 3u);
    ids.insert(*id);
  }
  EXPECT_EQ(ids.size(), 3u);
}

TEST(DictionaryTest, PredicateAlsoUsableAsSubjectOrObject) {
  // The same term may occur as predicate and as an entity; the spaces are
  // independent.
  Dictionary dict =
      DictOf({T("a", "knows", "b"), T("knows", "type", "Property")});
  EXPECT_TRUE(dict.PredicateId(Term::Iri("knows")).has_value());
  EXPECT_TRUE(dict.SubjectId(Term::Iri("knows")).has_value());
}

TEST(DictionaryTest, EmptyGraphHasNoTerms) {
  Dictionary dict = DictOf({});
  EXPECT_EQ(dict.num_subjects(), 0u);
  EXPECT_EQ(dict.num_objects(), 0u);
  EXPECT_EQ(dict.num_predicates(), 0u);
  EXPECT_FALSE(dict.SubjectId(Term::Iri("a")).has_value());
  EXPECT_THROW(dict.TermAt(0), std::out_of_range);
  // A default dictionary is the same empty section.
  Dictionary empty;
  ASSERT_EQ(empty.size(), dict.size());
  EXPECT_EQ(Checksum64(empty.data(), empty.size()),
            Checksum64(dict.data(), dict.size()));
}

TEST(DictionaryTest, SitcomSectionChecksumIsPinned) {
  // The dict section is snapshot format v3: the builder must keep writing
  // these exact bytes, so files saved by earlier builds open unchanged.
  const Dictionary dict = testing::SitcomGraph().dict();
  EXPECT_EQ(dict.size(), 268u);
  EXPECT_EQ(Checksum64(dict.data(), dict.size()), 0xcaa5e2cef40c370dull);
}

/// Every id on every dimension maps id -> term -> the same id, absent
/// terms and terms asked for on the wrong dimension map to nullopt.
void ExpectIdsRoundTrip(const Dictionary& dict) {
  for (uint32_t id = 0; id < dict.num_subjects(); ++id) {
    const Term t = dict.SubjectTerm(id);
    ASSERT_EQ(dict.SubjectId(t), id) << t.ToString();
    if (id >= dict.num_common()) {
      EXPECT_FALSE(dict.ObjectId(t).has_value()) << t.ToString();
    }
  }
  for (uint32_t id = 0; id < dict.num_objects(); ++id) {
    const Term t = dict.ObjectTerm(id);
    ASSERT_EQ(dict.ObjectId(t), id) << t.ToString();
    if (id >= dict.num_common()) {
      EXPECT_FALSE(dict.SubjectId(t).has_value()) << t.ToString();
    }
  }
  for (uint32_t id = 0; id < dict.num_predicates(); ++id) {
    const Term t = dict.PredicateTerm(id);
    ASSERT_EQ(dict.PredicateId(t), id) << t.ToString();
  }
  const Term absent[] = {Term::Iri("urn:absent"), Term::Literal(""),
                         Term::Blank("urn:t:s")};
  for (const Term& t : absent) {
    EXPECT_FALSE(dict.SubjectId(t).has_value()) << t.ToString();
    EXPECT_FALSE(dict.PredicateId(t).has_value()) << t.ToString();
    EXPECT_FALSE(dict.ObjectId(t).has_value()) << t.ToString();
  }
  // A literal and an IRI that share one lexical value, and bytes >= 0x80:
  // lookups must order kind first, then unsigned bytes (Term::operator<).
  const Term iri = Term::Iri("urn:t:s");
  const Term lit = Term::Literal("urn:t:s");
  const Term utf8 = Term::Literal("caf\xc3\xa9 \xe2\x98\x83");
  ASSERT_TRUE(dict.SubjectId(iri).has_value());
  EXPECT_FALSE(dict.ObjectId(iri).has_value());
  EXPECT_FALSE(dict.SubjectId(lit).has_value());
  ASSERT_TRUE(dict.ObjectId(lit).has_value());
  EXPECT_EQ(dict.ObjectTerm(*dict.ObjectId(lit)), lit);
  ASSERT_TRUE(dict.ObjectId(utf8).has_value());
  EXPECT_EQ(dict.ObjectTerm(*dict.ObjectId(utf8)), utf8);
  EXPECT_FALSE(dict.PredicateId(Term::Iri("urn:t:s")).has_value());
}

TEST(DictionaryTest, BuiltAndReopenedIdsRoundTrip) {
  LubmConfig lubm;
  lubm.num_universities = 1;
  UniprotConfig uniprot;
  uniprot.num_proteins = 300;
  DbpediaConfig dbpedia;
  dbpedia.num_places = 100;
  dbpedia.num_persons = 150;
  dbpedia.num_soccer_players = 80;
  dbpedia.num_settlements = 50;
  dbpedia.num_airports = 20;
  dbpedia.num_companies = 60;
  dbpedia.num_noise_predicates = 20;
  dbpedia.num_noise_triples = 500;
  const std::vector<std::pair<std::string, std::vector<TermTriple>>> inputs = {
      {"lubm", GenerateLubm(lubm)},
      {"uniprot", GenerateUniprot(uniprot)},
      {"dbpedia", GenerateDbpedia(dbpedia)},
  };
  for (const auto& [name, generated] : inputs) {
    SCOPED_TRACE(name);
    std::vector<TermTriple> triples = generated;
    triples.push_back(T("urn:t:s", "urn:t:p", "\"urn:t:s\""));
    triples.push_back(T("urn:t:s", "urn:t:p", "\"caf\xc3\xa9 \xe2\x98\x83\""));
    Database built = Database::Build(triples);
    const std::string path = testing::TempPath(name + ".snap");
    built.SaveSnapshot(path);
    Database reopened = Database::OpenSnapshot(path);
    std::remove(path.c_str());
    {
      SCOPED_TRACE("built");
      ExpectIdsRoundTrip(built.dict());
    }
    {
      SCOPED_TRACE("reopened");
      ExpectIdsRoundTrip(reopened.dict());
    }
  }
}

}  // namespace
}  // namespace lbr
