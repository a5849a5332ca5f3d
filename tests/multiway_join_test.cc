#include "core/multiway_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>

#include "baseline/reference_evaluator.h"
#include "bitmat/triple_index.h"
#include "core/engine.h"
#include "core/jvar_order.h"
#include "core/prune.h"
#include "core/selectivity.h"
#include "sparql/parser.h"
#include "util/query_control.h"
#include "util/rng.h"
#include "test_util.h"
#include "workload/dbpedia_gen.h"
#include "workload/lubm_gen.h"
#include "workload/query_sets.h"
#include "workload/uniprot_gen.h"

namespace lbr {
namespace {

using testing::SitcomGraph;

// Harness that runs the full pipeline up to and including the multi-way
// join, with knobs for skipping pruning (to force nullification paths).
struct JoinFixture {
  Graph graph;
  TripleIndex index;
  Gosn gosn;
  Goj goj;
  std::vector<TpState> states;

  JoinFixture(Graph g, const std::string& group)
      : graph(std::move(g)),
        index(TripleIndex::Build(graph)),
        gosn(Gosn::Build(*Parser::ParseGroup(group, {}))),
        goj(Goj::Build(gosn.tps())) {
    for (size_t i = 0; i < gosn.tps().size(); ++i) {
      TpState st;
      st.tp = gosn.tps()[i];
      st.tp_id = static_cast<int>(i);
      st.sn_id = gosn.SupernodeOf(st.tp_id);
      st.mat = LoadTpBitMat(index, graph.dict(), st.tp, true);
      states.push_back(std::move(st));
    }
  }

  void Prune() {
    std::vector<uint64_t> cards;
    for (const TpState& st : states) cards.push_back(st.CurrentCount());
    JvarOrder order = GetJvarOrder(gosn, goj, cards);
    PruneTriples(order, gosn, goj, index.num_common(), &states);
  }

  // Runs the join with default stps order (query order) unless given.
  std::vector<std::pair<RawRow, bool>> Run(MultiwayJoin::Options options,
                                           MultiwayJoin** out_join = nullptr) {
    std::vector<int> stps(states.size());
    for (size_t i = 0; i < states.size(); ++i) stps[i] = static_cast<int>(i);
    GlobalIds ids = GlobalIds::FromDictionary(graph.dict());
    static MultiwayJoin* live = nullptr;
    delete live;
    live = new MultiwayJoin(gosn, ids, graph.dict(), &states, stps,
                            std::move(options));
    if (out_join != nullptr) *out_join = live;
    return testing::JoinEmissions(live);
  }
};

TEST(MultiwayJoinTest, PrunedSitcomQueryYieldsPaperRows) {
  JoinFixture f(SitcomGraph(),
                "{ <Jerry> <hasFriend> ?friend . "
                "OPTIONAL { ?friend <actedIn> ?sitcom . "
                "?sitcom <location> <NewYorkCity> . } }");
  f.Prune();
  MultiwayJoin* join = nullptr;
  auto rows = f.Run({}, &join);
  ASSERT_EQ(rows.size(), 2u);
  // No nullification was applied on the minimal inputs.
  for (const auto& [row, nulled] : rows) EXPECT_FALSE(nulled);
  EXPECT_FALSE(join->nulling_applied());
}

TEST(MultiwayJoinTest, UnprunedNeedsNullificationRepair) {
  // Without pruning, enumerating Julia's four sitcoms produces phantom
  // rows that the nullification option must mark.
  JoinFixture f(SitcomGraph(),
                "{ <Jerry> <hasFriend> ?friend . "
                "OPTIONAL { ?friend <actedIn> ?sitcom . "
                "?sitcom <location> <NewYorkCity> . } }");
  MultiwayJoin::Options options;
  options.nullification = true;
  MultiwayJoin* join = nullptr;
  auto rows = f.Run(options, &join);
  EXPECT_TRUE(join->nulling_applied());
  // Julia has one real match plus 3 nulled phantoms; Larry has 1 phantom.
  size_t nulled = 0;
  for (const auto& [row, flag] : rows) {
    if (flag) ++nulled;
  }
  EXPECT_EQ(nulled, 4u);
  EXPECT_EQ(rows.size(), 5u);
}

TEST(MultiwayJoinTest, MasterColumnsNeverNull) {
  JoinFixture f(SitcomGraph(),
                "{ <Jerry> <hasFriend> ?friend . "
                "OPTIONAL { ?friend <actedIn> ?sitcom . "
                "?sitcom <location> <NewYorkCity> . } }");
  f.Prune();
  MultiwayJoin* join = nullptr;
  auto rows = f.Run({}, &join);
  std::vector<int> master_cols = join->MasterColumns();
  ASSERT_EQ(master_cols.size(), 1u);  // ?friend
  EXPECT_EQ(join->var_names()[master_cols[0]], "friend");
  for (const auto& [row, nulled] : rows) {
    EXPECT_NE(row[master_cols[0]], kNullBinding);
  }
}

TEST(MultiwayJoinTest, VarIndexLookups) {
  JoinFixture f(SitcomGraph(),
                "{ <Jerry> <hasFriend> ?friend . "
                "OPTIONAL { ?friend <actedIn> ?sitcom . "
                "?sitcom <location> <NewYorkCity> . } }");
  MultiwayJoin* join = nullptr;
  f.Run({}, &join);
  EXPECT_GE(join->VarIndex("friend"), 0);
  EXPECT_GE(join->VarIndex("sitcom"), 0);
  EXPECT_EQ(join->VarIndex("nope"), -1);
}

TEST(MultiwayJoinTest, EmptyMasterRollsBack) {
  JoinFixture f(testing::MakeGraph({{"a", "q", "b"}}),
                "{ ?x <p> ?y . OPTIONAL { ?y <q> ?z . } }");
  auto rows = f.Run({});
  EXPECT_TRUE(rows.empty());
}

TEST(MultiwayJoinTest, SlaveMissProducesNullNotRollback) {
  JoinFixture f(testing::MakeGraph({{"a", "p", "b"}}),
                "{ ?x <p> ?y . OPTIONAL { ?y <q> ?z . } }");
  MultiwayJoin* join = nullptr;
  auto rows = f.Run({}, &join);
  ASSERT_EQ(rows.size(), 1u);
  int z = join->VarIndex("z");
  EXPECT_EQ(rows[0].first[z], kNullBinding);
  EXPECT_FALSE(rows[0].second);  // genuine miss, not a nulled phantom
}

TEST(MultiwayJoinTest, FanFilterDropsRowOnMasterScope) {
  // A filter whose scope includes the absolute master drops rows outright.
  JoinFixture f(testing::MakeGraph({{"a", "p", "b"}, {"c", "p", "d"}}),
                "{ ?x <p> ?y . FILTER (?x != <a>) }");
  MultiwayJoin::Options options;
  options.filters = f.gosn.filters();
  ASSERT_EQ(options.filters.size(), 1u);
  auto rows = f.Run(options);
  ASSERT_EQ(rows.size(), 1u);
}

TEST(MultiwayJoinTest, FanFilterNullsSlaveScope) {
  // A failing filter scoped to a slave group nulls the group instead of
  // dropping the row.
  JoinFixture f(testing::MakeGraph({{"a", "p", "b"}, {"b", "q", "z"}}),
                "{ ?x <p> ?y . OPTIONAL { ?y <q> ?w . FILTER (?w != <z>) } }");
  MultiwayJoin::Options options;
  options.filters = f.gosn.filters();
  MultiwayJoin* join = nullptr;
  auto rows = f.Run(options, &join);
  ASSERT_EQ(rows.size(), 1u);
  int w = join->VarIndex("w");
  EXPECT_EQ(rows[0].first[w], kNullBinding);
  EXPECT_TRUE(rows[0].second);
  EXPECT_TRUE(join->nulling_applied());
}

TEST(MultiwayJoinTest, ExistenceGuardTp) {
  // A variable-free TP acts as a boolean gate.
  JoinFixture hit(testing::MakeGraph({{"a", "p", "b"}, {"s", "g", "o"}}),
                  "{ ?x <p> ?y . <s> <g> <o> . }");
  EXPECT_EQ(hit.Run({}).size(), 1u);
  JoinFixture miss(testing::MakeGraph({{"a", "p", "b"}, {"s", "g", "o"}}),
                   "{ ?x <p> ?y . <s> <g> <nope> . }");
  EXPECT_TRUE(miss.Run({}).empty());
}

TEST(MultiwayJoinTest, OneColumnWithinTransposeCostStaysLazy) {
  // ?y = b is looked up through the transposed column b of ?w <q> ?y.
  JoinFixture f(testing::MakeGraph({
                    {"a", "p", "b"},
                    {"c", "q", "b"},
                    {"e", "q", "b"},
                    {"d", "q", "x"},
                }),
                "{ ?s <p> ?y . ?w <q> ?y . }");
  std::vector<int> stps = {0, 1};
  GlobalIds ids = GlobalIds::FromDictionary(f.graph.dict());
  MultiwayJoin join(f.gosn, ids, f.graph.dict(), &f.states, stps, {});
  EXPECT_EQ(testing::JoinEmissions(&join).size(), 2u);
  // One column, one scan of the TP's three rows: within its transpose
  // cost (three triples), so the column is extracted lazily.
  EXPECT_EQ(join.columns_extracted(), 1u);
  EXPECT_EQ(join.rows_scanned(), 3u);
  EXPECT_EQ(join.transposes(), 0u);
}

TEST(MultiwayJoinTest, SecondColumnPastTransposeCostTransposes) {
  // Seventy ?y columns of ?w <q> ?y are visited, so the Run ends on a full
  // transpose.
  std::vector<std::vector<std::string>> triples;
  for (int i = 0; i < 70; ++i) {
    std::string y = "y" + std::to_string(i);
    triples.push_back({"a", "p", y});
    triples.push_back({"w" + std::to_string(i), "q", y});
  }
  triples.push_back({"v", "q", "y0"});
  JoinFixture f(testing::MakeGraph(triples), "{ ?s <p> ?y . ?w <q> ?y . }");
  std::vector<int> stps = {0, 1};
  GlobalIds ids = GlobalIds::FromDictionary(f.graph.dict());
  MultiwayJoin join(f.gosn, ids, f.graph.dict(), &f.states, stps, {});
  EXPECT_EQ(testing::JoinEmissions(&join).size(), 71u);
  // 71 rows and 71 triples: one scan fits the transpose cost, the second
  // would not.
  EXPECT_EQ(join.columns_extracted(), 1u);
  EXPECT_EQ(join.transposes(), 1u);
}

// `num_w` subjects w<j>, each with `per_w` objects of its own
// (w<j> <q> y<j*per_w + m>), and a <p> y<i> for the first `visits` y's: a
// query joining the two visits `visits` distinct columns of ?w <q> ?y.
Graph SpreadGraph(int num_w, int per_w, int visits) {
  std::vector<std::vector<std::string>> triples;
  for (int j = 0; j < num_w; ++j) {
    for (int m = 0; m < per_w; ++m) {
      triples.push_back({"w" + std::to_string(j), "q",
                         "y" + std::to_string(j * per_w + m)});
    }
  }
  for (int i = 0; i < visits; ++i) {
    triples.push_back({"a", "p", "y" + std::to_string(i)});
  }
  return testing::MakeGraph(triples);
}

TEST(MultiwayJoinTest, LazyTransposeFallsForwardPastThreshold) {
  // Ten rows of five triples each: a column scan probes 10 rows, and one
  // transpose costs 50 (the triples; 50 columns add no whole column word),
  // so five columns are extracted lazily and the sixth miss transposes.
  // Both sides of that boundary: five visits stay lazy, six transpose.
  for (int visits : {5, 6}) {
    SCOPED_TRACE(visits);
    JoinFixture f(SpreadGraph(10, 5, visits), "{ ?s <p> ?y . ?w <q> ?y . }");
    const BitMat& q = f.states[1].mat.bm;
    ASSERT_EQ(q.NonEmptyRowCount(), 10u);
    ASSERT_EQ(q.Count() + q.num_cols() / 64, 50u);
    std::vector<int> stps = {0, 1};
    GlobalIds ids = GlobalIds::FromDictionary(f.graph.dict());
    MultiwayJoin join(f.gosn, ids, f.graph.dict(), &f.states, stps, {});
    EXPECT_EQ(testing::JoinEmissions(&join).size(),
              static_cast<uint64_t>(visits));
    EXPECT_EQ(join.columns_extracted(), 5u);
    EXPECT_EQ(join.rows_scanned(), 50u);
    EXPECT_EQ(join.transposes(), visits == 5 ? 0u : 1u);
  }
}

TEST(MultiwayJoinTest, FullTransposeChargesItsMemory) {
  // Two columns of a 2000-row TP are visited: the second miss transposes.
  // The query's memory charge must cover what the transpose holds — its
  // arrays, row objects and payload arena — not a fraction of it.
  JoinFixture f(SpreadGraph(2000, 1, 2), "{ ?s <p> ?y . ?w <q> ?y . }");
  const BitMat expected = f.states[1].mat.bm.Transposed();
  const uint64_t held = expected.HeapBytes() + expected.PayloadBytes();
  std::vector<int> stps = {0, 1};
  GlobalIds ids = GlobalIds::FromDictionary(f.graph.dict());
  MultiwayJoin join(f.gosn, ids, f.graph.dict(), &f.states, stps, {});
  QueryControl control;
  ExecContext ctx;
  ctx.SetQueryControl(&control);
  EXPECT_EQ(testing::JoinEmissions(&join, &ctx).size(), 2u);
  ASSERT_EQ(join.transposes(), 1u);
  ASSERT_EQ(join.columns_extracted(), 1u);
  // The one lazy column (a single row position) plus the transpose, plus
  // the two result rows of three cells the join wrote.
  EXPECT_EQ(control.memory_used(),
            sizeof(uint32_t) + 64 + held + 2 * 3 * sizeof(uint64_t));
  EXPECT_GT(held, 2000u * sizeof(uint32_t));
  ctx.SetQueryControl(nullptr);
}

TEST(MultiwayJoinTest, ColumnConstrainedLookupUsesTranspose) {
  // Force a join where the second TP is keyed by its column dimension:
  // tp0 binds ?y (object), tp1 loaded with subject rows binds ?z from ?y...
  // orientation true means tp1 rows are over ?y's subject dim; make tp1's
  // bound var the column instead by joining on the object.
  JoinFixture f(testing::MakeGraph({
                    {"a", "p", "b"},
                    {"c", "q", "b"},
                    {"d", "q", "x"},
                }),
                "{ ?s <p> ?y . ?w <q> ?y . }");
  auto rows = f.Run({});
  ASSERT_EQ(rows.size(), 1u);  // (a,b,c)
}

// Alg 5.4 lines 6-11 as the join once evaluated them at every recursion
// node: the first unvisited TP in stps order with a bound variable (a
// variable-free TP qualifies at once), else the first unvisited TP. Every
// visit, NULL or not, binds its TP's variables. The compiled order must
// equal this choice at every depth.
std::vector<int> DynamicOrder(const std::vector<TpState>& states,
                              const std::vector<int>& stps) {
  std::vector<bool> visited(states.size(), false);
  std::set<std::string> bound;
  std::vector<int> order;
  for (size_t depth = 0; depth < stps.size(); ++depth) {
    int chosen = -1;
    int fallback = -1;
    for (int tp_id : stps) {
      if (visited[tp_id]) continue;
      if (fallback == -1) fallback = tp_id;
      const TpBitMat& mat = states[tp_id].mat;
      if ((mat.row_var.empty() && mat.col_var.empty()) ||
          bound.count(mat.row_var) > 0 || bound.count(mat.col_var) > 0) {
        chosen = tp_id;
        break;
      }
    }
    if (chosen == -1) chosen = fallback;
    visited[chosen] = true;
    order.push_back(chosen);
    for (const std::string& v :
         {states[chosen].mat.row_var, states[chosen].mat.col_var}) {
      if (!v.empty()) bound.insert(v);
    }
  }
  return order;
}

// Loads every TP of `body` over `index`, then, for the identity, reversed
// and a shuffled stps order, runs the join and checks its compiled order
// against the oracle at every depth.
void ExpectCompiledOrderMatchesOracle(const Graph& graph,
                                      const TripleIndex& index,
                                      const Algebra& body,
                                      const std::string& label, Rng* rng) {
  Gosn gosn = Gosn::Build(body);
  std::vector<TpState> states;
  for (size_t i = 0; i < gosn.tps().size(); ++i) {
    TpState st;
    st.tp = gosn.tps()[i];
    st.tp_id = static_cast<int>(i);
    st.sn_id = gosn.SupernodeOf(st.tp_id);
    st.mat = LoadTpBitMat(index, graph.dict(), st.tp, true);
    states.push_back(std::move(st));
  }
  std::vector<int> stps(states.size());
  for (size_t i = 0; i < stps.size(); ++i) stps[i] = static_cast<int>(i);
  std::vector<std::vector<int>> orders = {stps};
  orders.emplace_back(stps.rbegin(), stps.rend());
  for (size_t i = stps.size(); i > 1; --i) {
    std::swap(stps[i - 1], stps[rng->Uniform(i)]);
  }
  orders.push_back(stps);
  GlobalIds ids = GlobalIds::FromDictionary(graph.dict());
  for (const std::vector<int>& order : orders) {
    MultiwayJoin::Options options;
    options.filters = gosn.filters();
    MultiwayJoin join(gosn, ids, graph.dict(), &states, order, options);
    testing::JoinEmissions(&join);
    const std::vector<int> expected = DynamicOrder(states, order);
    ASSERT_EQ(join.visit_order().size(), expected.size()) << label;
    for (size_t d = 0; d < expected.size(); ++d) {
      EXPECT_EQ(join.visit_order()[d], expected[d])
          << label << " at depth " << d;
    }
  }
}

TEST(MultiwayJoinTest, CompiledOrderMatchesDynamicRuleOnPaperQueries) {
  LubmConfig lubm;
  lubm.num_universities = 1;
  lubm.departments_per_university = 2;
  UniprotConfig uniprot;
  uniprot.num_proteins = 200;
  DbpediaConfig dbpedia;
  dbpedia.num_places = 60;
  dbpedia.num_persons = 80;
  dbpedia.num_soccer_players = 40;
  dbpedia.num_settlements = 30;
  dbpedia.num_airports = 10;
  dbpedia.num_companies = 30;
  const std::vector<std::pair<std::vector<TermTriple>, std::vector<BenchQuery>>>
      sets = {{GenerateLubm(lubm), LubmQueries()},
              {GenerateUniprot(uniprot), UniprotQueries()},
              {GenerateDbpedia(dbpedia), DbpediaQueries()}};
  Rng rng(7);
  size_t checked = 0;
  for (const auto& [triples, queries] : sets) {
    Graph graph = Graph::FromTriples(triples);
    TripleIndex index = TripleIndex::Build(graph);
    for (const BenchQuery& q : queries) {
      ParsedQuery parsed = Parser::Parse(q.sparql);
      ExpectCompiledOrderMatchesOracle(graph, index, *parsed.body, q.id,
                                       &rng);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 19u);
}

TEST(MultiwayJoinTest, CompiledOrderMatchesDynamicRuleOnGeneratedQueries) {
  Rng rng(11);
  for (int g = 0; g < 4; ++g) {
    Graph graph = testing::RandomGraph(&rng, 12, 4, 80);
    TripleIndex index = TripleIndex::Build(graph);
    for (int i = 0; i < 25; ++i) {
      const std::string text = testing::RandomWellDesignedQuery(
          &rng, 4, 12, /*allow_nested=*/g % 2 == 1, /*allow_filter=*/g >= 2);
      ParsedQuery parsed = Parser::Parse(text);
      ExpectCompiledOrderMatchesOracle(graph, index, *parsed.body, text,
                                       &rng);
    }
  }
}

TEST(MultiwayJoinTest, CompiledOrderMatchesDynamicRuleOnEdgeShapes) {
  // Existence guards (variable-free TPs) qualify at once; a diagonal
  // (?x p ?x) binds one variable from both slots; a disconnected second
  // component is reached only through the no-bound-variable fallback.
  Graph graph = testing::MakeGraph({{"a", "p", "a"}, {"a", "q", "b"},
                                    {"s", "g", "o"}, {"c", "r", "d"}});
  TripleIndex index = TripleIndex::Build(graph);
  Rng rng(3);
  for (const std::string group : {
           "{ ?x <p> ?x . ?x <q> ?y . }",
           "{ ?x <q> ?y . <s> <g> <o> . ?y <r> ?z . }",
           "{ <s> <g> <o> . ?x <q> ?y . OPTIONAL { <s> <g> <nope> . } }",
           "{ ?x <q> ?y . ?z <r> ?w . }",
           "{ ?x <q> ?y . OPTIONAL { ?y <p> ?y . ?y <r> ?z . } }",
       }) {
    auto body = Parser::ParseGroup(group, {});
    ExpectCompiledOrderMatchesOracle(graph, index, *body, group, &rng);
  }
}

// uniprot.Q4's shape: prune empties the slave supernode, so every row's
// OPTIONAL part is NULL.
constexpr char kEmptySlaveGroup[] =
    "{ ?s <p> ?seq . OPTIONAL { ?seq <q> ?m . ?m <r> ?b . } }";

Graph EmptySlaveGraph(int num_rows) {
  std::vector<std::vector<std::string>> triples = {{"x", "q", "m1"},
                                                   {"m1", "r", "b1"}};
  for (int i = 0; i < num_rows; ++i) {
    const std::string n = std::to_string(i);
    triples.push_back({"s" + n, "p", "seq" + n});
  }
  return testing::MakeGraph(triples);
}

TEST(MultiwayJoinTest, EmptySlaveIsBoundNullUpFront) {
  JoinFixture f(EmptySlaveGraph(5), kEmptySlaveGroup);
  f.Prune();
  ASSERT_TRUE(f.states[1].mat.bm.IsEmpty());
  ASSERT_TRUE(f.states[2].mat.bm.IsEmpty());
  MultiwayJoin* join = nullptr;
  auto rows = f.Run({}, &join);
  ASSERT_EQ(rows.size(), 5u);
  const int m = join->VarIndex("m");
  const int b = join->VarIndex("b");
  for (const auto& [row, nulled] : rows) {
    EXPECT_EQ(row[m], kNullBinding);
    EXPECT_EQ(row[b], kNullBinding);
    EXPECT_FALSE(nulled);
  }
  // The slave's depths are never enumerated: no candidate, column or
  // transpose is spent on them.
  EXPECT_EQ(join->enum_candidates(), 0u);
  EXPECT_EQ(join->columns_extracted(), 0u);
  EXPECT_EQ(join->transposes(), 0u);

  // End to end, the rows are the reference evaluator's.
  Graph graph = EmptySlaveGraph(5);
  TripleIndex index = TripleIndex::Build(graph);
  Engine engine(&index, &graph.dict());
  const std::string query = std::string("SELECT * WHERE ") + kEmptySlaveGroup;
  EXPECT_EQ(testing::Canonicalize(engine.ExecuteToTable(query)),
            testing::Canonicalize(
                ReferenceEvaluator(&graph).Execute(Parser::Parse(query))));
}

TEST(MultiwayJoinTest, EmptySlaveEmissionStillObservesAborts) {
  // The NULL-up-front depths add no recursion node, so the per-row check
  // in Emit is what observes an abort raised while rows are emitted.
  constexpr int kRows = 2000;
  // A deadline already past latches at the first strided clock poll,
  // 256 checks (here: 255 rows) into the emission.
  {
    JoinFixture f(EmptySlaveGraph(kRows), kEmptySlaveGroup);
    f.Prune();
    std::vector<int> stps = {0, 1, 2};
    GlobalIds ids = GlobalIds::FromDictionary(f.graph.dict());
    MultiwayJoin join(f.gosn, ids, f.graph.dict(), &f.states, stps, {});
    QueryControl control;
    control.SetDeadline(std::chrono::steady_clock::now() -
                        std::chrono::seconds(1));
    ExecContext ctx;
    ctx.SetQueryControl(&control);
    RowSlab rows(join.var_names().size());
    try {
      join.Run(&rows, &ctx);
      ADD_FAILURE() << "the join ran past its deadline";
    } catch (const QueryAbortedError& e) {
      EXPECT_EQ(e.code(), QueryTermination::kDeadlineExceeded);
    }
    EXPECT_EQ(control.abort_code(), QueryTermination::kDeadlineExceeded);
    EXPECT_GT(rows.size(), 0u);
    EXPECT_LT(rows.size(), static_cast<size_t>(kRows));
    ctx.SetQueryControl(nullptr);
  }
  // A Cancel() raised from inside emission (here the nulled-row hook: a
  // slave-scoped filter fails on every row, nulling the empty slave)
  // stops the join at the next row.
  {
    JoinFixture f(EmptySlaveGraph(kRows),
                  "{ ?s <p> ?seq . OPTIONAL { ?seq <q> ?m . ?m <r> ?b . "
                  "FILTER (?m = <m1>) } }");
    f.Prune();
    ASSERT_TRUE(f.states[1].mat.bm.IsEmpty());
    MultiwayJoin::Options options;
    options.filters = f.gosn.filters();
    std::vector<int> stps = {0, 1, 2};
    GlobalIds ids = GlobalIds::FromDictionary(f.graph.dict());
    MultiwayJoin join(f.gosn, ids, f.graph.dict(), &f.states, stps, options);
    QueryControl control;
    ExecContext ctx;
    ctx.SetQueryControl(&control);
    RowSlab rows(join.var_names().size());
    try {
      join.Run(&rows, &ctx, [&control](size_t row) {
        if (row == 99) control.Cancel();
      });
      ADD_FAILURE() << "the join ran past its cancellation";
    } catch (const QueryAbortedError& e) {
      EXPECT_EQ(e.code(), QueryTermination::kCancelled);
    }
    EXPECT_EQ(control.abort_code(), QueryTermination::kCancelled);
    EXPECT_EQ(rows.size(), 100u);
    ctx.SetQueryControl(nullptr);
  }
}

}  // namespace
}  // namespace lbr
