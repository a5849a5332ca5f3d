// Join-equivalence suite for the multiway join's candidate enumeration
// (DESIGN.md §6): the *exact ordered row stream* the join emits on the
// scalar kernels is the reference, and every SIMD backend the build and
// CPU can run (sse4.2) must reproduce it bit for bit, with pruning on
// and off. End to end, the engine must produce the reference evaluator's
// row multiset with pruning on and off — the unpruned run loads every TP
// without active-pruning masks and skips prune_triples, so it feeds the
// join the large candidate sets the intersection filters hardest. Shapes
// covered: cyclic master triangles (multi-constraint jvars), multi-jvar
// slaves (nullification + best-match), FaN-filtered queries, both sides
// of the lazy transpose cache's cost rule, and a random well-designed
// sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baseline/reference_evaluator.h"
#include "bitmat/tp_loader.h"
#include "bitmat/triple_index.h"
#include "core/engine.h"
#include "core/goj.h"
#include "core/jvar_order.h"
#include "core/multiway_join.h"
#include "core/prune.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace lbr {
namespace {

using testing::Canonicalize;
using testing::MakeGraph;
using testing::SitcomGraph;
using testing::T;

// One emitted row plus its nulled flag — the full observable output of a
// MultiwayJoin::Run emission.
using Emission = std::pair<RawRow, bool>;

// Runs the pipeline up to the multiway join and returns the ordered
// emission stream (no dedup, no best-match): the strictest equivalence
// level, pinning enumeration order itself. `access`, when given, receives
// the join's column-access counters.
struct ColumnAccess {
  uint64_t columns_extracted = 0;
  uint64_t rows_scanned = 0;
  uint64_t transposes = 0;
};
std::vector<Emission> RunJoin(const Graph& graph, const std::string& group,
                              bool prune, bool nullification, bool use_filters,
                              ColumnAccess* access = nullptr) {
  TripleIndex index = TripleIndex::Build(graph);
  Gosn gosn = Gosn::Build(*Parser::ParseGroup(group, {}));
  Goj goj = Goj::Build(gosn.tps());
  std::vector<TpState> states;
  for (size_t i = 0; i < gosn.tps().size(); ++i) {
    TpState st;
    st.tp = gosn.tps()[i];
    st.tp_id = static_cast<int>(i);
    st.sn_id = gosn.SupernodeOf(st.tp_id);
    st.mat = LoadTpBitMat(index, graph.dict(), st.tp, true);
    states.push_back(std::move(st));
  }
  if (prune) {
    std::vector<uint64_t> cards;
    for (const TpState& st : states) cards.push_back(st.CurrentCount());
    JvarOrder order = GetJvarOrder(gosn, goj, cards);
    PruneTriples(order, gosn, goj, index.num_common(), &states);
  }
  std::vector<int> stps(states.size());
  for (size_t i = 0; i < states.size(); ++i) stps[i] = static_cast<int>(i);
  MultiwayJoin::Options options;
  options.nullification = nullification;
  if (use_filters) options.filters = gosn.filters();
  GlobalIds ids = GlobalIds::FromDictionary(graph.dict());
  MultiwayJoin join(gosn, ids, graph.dict(), &states, stps,
                    std::move(options));
  ExecContext ctx;
  std::vector<Emission> out = testing::JoinEmissions(&join, &ctx);
  if (access != nullptr) {
    *access = {join.columns_extracted(), join.rows_scanned(),
               join.transposes()};
  }
  return out;
}

// Kernel backends this build/CPU can run; scalar is always present.
std::vector<bitops::KernelBackend> AvailableBackends() {
  std::vector<bitops::KernelBackend> backends;
  for (bitops::KernelBackend b :
       {bitops::KernelBackend::kScalar, bitops::KernelBackend::kSse42}) {
    if (bitops::KernelsFor(b) != nullptr) backends.push_back(b);
  }
  return backends;
}

// Asserts ordered emission equality across the kernel backends, for
// pruning on and off (off exercises nullification paths and much larger
// candidate sets). The scalar backend's stream is the reference; every
// SIMD backend must reproduce it bit-identically (DESIGN.md §6, §8).
void ExpectJoinStreamsIdentical(const Graph& graph, const std::string& group,
                                bool nullification, bool use_filters) {
  for (bool prune : {true, false}) {
    ASSERT_TRUE(bitops::ForceKernelBackend(bitops::KernelBackend::kScalar));
    std::vector<Emission> reference =
        RunJoin(graph, group, prune, nullification, use_filters);
    for (bitops::KernelBackend backend : AvailableBackends()) {
      if (backend == bitops::KernelBackend::kScalar) continue;
      ASSERT_TRUE(bitops::ForceKernelBackend(backend));
      std::vector<Emission> got =
          RunJoin(graph, group, prune, nullification, use_filters);
      EXPECT_EQ(reference, got)
          << group << " (prune=" << prune
          << ", backend=" << bitops::KernelsFor(backend)->name << ")";
    }
    bitops::ResetKernelBackend();
  }
}

// Full-engine bag equivalence against the reference evaluator, with
// pruning on and off (off: unmasked loads and no prune_triples).
void ExpectEngineMatchesReference(const Graph& graph,
                                  const std::string& sparql) {
  TripleIndex index = TripleIndex::Build(graph);
  ParsedQuery parsed = Parser::Parse(sparql);
  ReferenceEvaluator reference(&graph);
  std::vector<std::string> expected = Canonicalize(reference.Execute(parsed));
  for (bool prune : {true, false}) {
    EngineOptions options;
    options.enable_prune = prune;
    Engine engine(&index, &graph.dict(), options);
    EXPECT_EQ(Canonicalize(engine.ExecuteToTable(parsed)), expected)
        << sparql << " (prune=" << prune << ")";
  }
}

// A cyclic all-master triangle with shared endpoints — every enumeration
// of ?y/?z is constrained by two other master TPs (the multi-constraint
// jvar case the intersection targets).
Graph TriangleGraph() {
  return MakeGraph({
      {"a", "p", "b"}, {"a", "p", "c"}, {"e", "p", "b"},
      {"b", "q", "c"}, {"b", "q", "d"}, {"c", "q", "d"},
      {"c", "r", "a"}, {"d", "r", "a"}, {"d", "r", "e"},
      {"b", "r", "e"},
  });
}

TEST(JoinEquivalenceTest, CyclicMasterTriangle) {
  ExpectJoinStreamsIdentical(TriangleGraph(),
                             "{ ?x <p> ?y . ?y <q> ?z . ?z <r> ?x . }",
                             /*nullification=*/false, /*use_filters=*/false);
  ExpectEngineMatchesReference(
      TriangleGraph(),
      "SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> ?x . }");
}

TEST(JoinEquivalenceTest, MultiJvarSlave) {
  // Cyclic GoJ with a slave holding two jvars (?y and ?z): nullification
  // and best-match are required; slave misses must stay NULL rows, not be
  // intersected away.
  Graph g = MakeGraph({
      {"a", "p", "b"}, {"a", "q", "c"}, {"b", "r", "c"},
      {"x", "p", "y"}, {"x", "q", "z"},
      {"m", "p", "n"}, {"m", "q", "n"}, {"n", "r", "n"},
  });
  ExpectJoinStreamsIdentical(
      g, "{ ?x <p> ?y . ?x <q> ?z . OPTIONAL { ?y <r> ?z . } }",
      /*nullification=*/true, /*use_filters=*/false);
  ExpectEngineMatchesReference(
      g,
      "SELECT * WHERE { ?x <p> ?y . ?x <q> ?z . OPTIONAL { ?y <r> ?z . } }");
}

TEST(JoinEquivalenceTest, FanFilteredQuery) {
  // Filters on a master scope (drops rows) and on a slave scope (nulls the
  // group) — the FaN path must see the identical emission stream.
  Graph g = MakeGraph({
      {"a", "p", "b"}, {"c", "p", "d"}, {"b", "q", "z"}, {"d", "q", "w"},
  });
  ExpectJoinStreamsIdentical(
      g, "{ ?x <p> ?y . OPTIONAL { ?y <q> ?w . FILTER (?w != <z>) } }",
      /*nullification=*/false, /*use_filters=*/true);
  ExpectJoinStreamsIdentical(
      g, "{ ?x <p> ?y . FILTER (?x != <a>) OPTIONAL { ?y <q> ?w . } }",
      /*nullification=*/false, /*use_filters=*/true);
  ExpectEngineMatchesReference(
      g,
      "SELECT * WHERE { ?x <p> ?y . OPTIONAL { ?y <q> ?w . "
      "FILTER (?w != <z>) } }");
}

TEST(JoinEquivalenceTest, SitcomPaperExample) {
  ExpectJoinStreamsIdentical(SitcomGraph(),
                             "{ <Jerry> <hasFriend> ?friend . "
                             "OPTIONAL { ?friend <actedIn> ?sitcom . "
                             "?sitcom <location> <NewYorkCity> . } }",
                             /*nullification=*/true, /*use_filters=*/false);
}

// Joins ?s <p> ?y with ?w <q> ?y over `num_w` subjects w<j> holding
// `per_w` objects each, where a <p> y<i> for the first `visits` y's, and
// checks that every expected row comes out exactly once, with pruning on
// and off, and the column access each run pins.
void ExpectColumnLookupRowsExact(int num_w, int per_w, int visits,
                                 const ColumnAccess& pruned,
                                 const ColumnAccess& unpruned) {
  std::vector<std::vector<std::string>> triples;
  std::vector<std::string> expected;
  for (int j = 0; j < num_w; ++j) {
    for (int m = 0; m < per_w; ++m) {
      triples.push_back({"w" + std::to_string(j), "q",
                         "y" + std::to_string(j * per_w + m)});
    }
  }
  for (int i = 0; i < visits; ++i) {
    std::string y = "y" + std::to_string(i);
    triples.push_back({"a", "p", y});
    expected.push_back("a w" + std::to_string(i / per_w) + " " +
                       y);  // columns ?s ?w ?y
  }
  std::sort(expected.begin(), expected.end());
  Graph g = MakeGraph(triples);
  GlobalIds ids = GlobalIds::FromDictionary(g.dict());
  const std::string group = "{ ?s <p> ?y . ?w <q> ?y . }";
  for (bool prune : {true, false}) {
    const ColumnAccess& pinned = prune ? pruned : unpruned;
    ColumnAccess access;
    std::vector<Emission> emitted =
        RunJoin(g, group, prune, /*nullification=*/false,
                /*use_filters=*/false, &access);
    EXPECT_EQ(access.columns_extracted, pinned.columns_extracted)
        << "prune=" << prune;
    EXPECT_EQ(access.rows_scanned, pinned.rows_scanned) << "prune=" << prune;
    EXPECT_EQ(access.transposes, pinned.transposes) << "prune=" << prune;
    std::vector<std::string> got;
    for (const auto& [row, nulled] : emitted) {
      EXPECT_FALSE(nulled);
      std::string line;
      for (uint64_t v : row) {
        if (!line.empty()) line += ' ';
        line += ids.Decode(g.dict(), v).value;
      }
      got.push_back(line);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "prune=" << prune;
  }
}

TEST(JoinEquivalenceTest, LazyTransposeFallForwardRowsExact) {
  // Seventy ?y columns are looked up through the lazy transpose cache of
  // ?w <q> ?y, one row each: a column scan probes all 70 rows, one
  // transpose costs 70 triples plus one column word, so the first column
  // is extracted lazily and the second miss transposes, which serves the
  // rest. Every one of the 70 expected rows must come out exactly once, on
  // both sides of the switch. Pruning keeps every triple here.
  const ColumnAccess pinned = {/*columns_extracted=*/1, /*rows_scanned=*/70,
                               /*transposes=*/1};
  ExpectColumnLookupRowsExact(/*num_w=*/70, /*per_w=*/1, /*visits=*/70,
                              pinned, pinned);
}

TEST(JoinEquivalenceTest, FewPopulatedRowsStayLazyRowsExact) {
  // Three rows of a hundred triples: 90 lookups scan 3 rows each, 270 in
  // all, within one transpose (300) — every column stays lazy. Pruning
  // keeps only row w0 (it holds every visited ?y) and its 90 visited
  // triples: 90 one-row scans, exactly the transpose cost, still lazy.
  ExpectColumnLookupRowsExact(/*num_w=*/3, /*per_w=*/100, /*visits=*/90,
                              /*pruned=*/{90, 90, 0},
                              /*unpruned=*/{90, 270, 0});
}

TEST(JoinEquivalenceTest, PredicateObjectMixedVarDoesNotDiverge) {
  // ?p joins a predicate position with an object position — a shape the
  // engine rejects up front (ValidateVarPositions) but MultiwayJoin can be
  // handed directly. The intersection must skip the unalignable
  // cross-domain constraint instead of throwing; no triple binds ?p on
  // both sides, so the stream is empty.
  Graph g = MakeGraph({{"a", "p", "b"}, {"c", "q", "p"}});
  const std::string group = "{ <a> ?p <b> . <c> ?x ?p . }";
  std::vector<Emission> emitted;
  EXPECT_NO_THROW(emitted = RunJoin(g, group, /*prune=*/false,
                                    /*nullification=*/false,
                                    /*use_filters=*/false));
  EXPECT_TRUE(emitted.empty());
}

// Random sweep: small dense graphs and generated well-designed queries
// with cycle-closing OPTIONALs and filters. Every query is checked at both
// equivalence levels.
class JoinEquivalenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinEquivalenceSweep, ModesAgreeAndMatchReference) {
  Rng rng(GetParam());
  const int entities = 8, predicates = 4, triples = 60;
  std::vector<TermTriple> tt;
  for (int i = 0; i < triples; ++i) {
    tt.push_back(T("e" + std::to_string(rng.Uniform(entities)),
                   "p" + std::to_string(rng.Uniform(predicates)),
                   "e" + std::to_string(rng.Uniform(entities))));
  }
  Graph graph = Graph::FromTriples(tt);

  auto pred = [&] { return "<p" + std::to_string(rng.Uniform(predicates)) + ">"; };
  for (int q = 0; q < 6; ++q) {
    // Master: a 2-3 TP chain from ?a; 50% close a master cycle.
    std::string body = "?a " + pred() + " ?b . ?b " + pred() + " ?c . ";
    if (rng.Chance(0.5)) body += "?c " + pred() + " ?a . ";
    // One or two OPTIONALs hooked on master vars; 40% two-jvar slaves.
    int opts = 1 + static_cast<int>(rng.Uniform(2));
    for (int o = 0; o < opts; ++o) {
      std::string hook = rng.Chance(0.5) ? "?b" : "?c";
      if (rng.Chance(0.4)) {
        body += "OPTIONAL { " + hook + " " + pred() + " ?a . } ";
      } else {
        body += "OPTIONAL { " + hook + " " + pred() + " ?o" +
                std::to_string(o) + " . } ";
      }
    }
    std::string sparql = "SELECT * WHERE { " + body + "}";
    SCOPED_TRACE(sparql);
    ExpectJoinStreamsIdentical(graph, "{ " + body + "}",
                               /*nullification=*/true, /*use_filters=*/false);
    ExpectEngineMatchesReference(graph, sparql);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalenceSweep,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108));

}  // namespace
}  // namespace lbr
