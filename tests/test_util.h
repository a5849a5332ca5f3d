#ifndef LBR_TESTS_TEST_UTIL_H_
#define LBR_TESTS_TEST_UTIL_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/multiway_join.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "util/rng.h"

namespace lbr::testing {

/// Builds a TermTriple from compact strings: "iri" stays an IRI, a leading
/// '"' makes a literal, a leading "_:" a blank node.
TermTriple T(const std::string& s, const std::string& p, const std::string& o);

/// Graph from compact triples.
Graph MakeGraph(const std::vector<std::vector<std::string>>& triples);

/// The Figure 3.2 running-example dataset (Jerry's friends and sitcoms).
Graph SitcomGraph();
/// The Figure 3.2 query (Q2 of the introduction).
std::string SitcomQuery();

/// Canonical multiset representation of a result table: each row rendered
/// as "var=value|var=NULL|..." in var order, rows sorted. Two tables with
/// equal canonical forms are bag-equal up to row order.
std::vector<std::string> Canonicalize(const ResultTable& table);

/// Gtest-friendly comparison: EXPECT_EQ(Canonicalize(a), Canonicalize(b))
/// via this helper that also aligns column orders by name.
std::vector<std::string> CanonicalizeProjected(
    const ResultTable& table, const std::vector<std::string>& var_order);

/// Runs `join` into a fresh slab and returns its ordered emission stream:
/// every row the join wrote (phantoms included, nothing deduplicated)
/// with its nulled flag.
std::vector<std::pair<RawRow, bool>> JoinEmissions(MultiwayJoin* join,
                                                   ExecContext* ctx = nullptr);

/// Random graph over a fixed vocabulary (e<i> entities, p<i> predicates).
/// Small domains force dense value collisions, which is what stresses join
/// correctness.
Graph RandomGraph(Rng* rng, int num_entities, int num_predicates,
                  int num_triples);

/// A random well-designed query: a master BGP over a star of variables,
/// plus up to 3 OPTIONAL groups whose first TP reuses a master variable
/// (guaranteeing well-designedness and connectivity); optionally nested
/// OPTIONALs and scoped FILTERs.
std::string RandomWellDesignedQuery(Rng* rng, int num_predicates,
                                    int num_entities, bool allow_nested,
                                    bool allow_filter);

/// A scratch file path unique to the running test and process:
/// `<gtest TempDir>/<suite>.<test>.<pid>.<name>`. Tests that ctest runs in
/// parallel (one process per test) never share a file through it.
std::string TempPath(const std::string& name);

}  // namespace lbr::testing

#endif  // LBR_TESTS_TEST_UTIL_H_
