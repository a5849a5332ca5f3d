#include "core/multiway_join.h"

#include <gtest/gtest.h>

#include <optional>

#include "bitmat/triple_index.h"
#include "core/jvar_order.h"
#include "core/prune.h"
#include "core/selectivity.h"
#include "sparql/parser.h"
#include "util/query_control.h"
#include "test_util.h"

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
    std::vector<std::pair<RawRow, bool>> rows;
    live->Run([&rows](const RawRow& row, bool nulled) {
      rows.emplace_back(row, nulled);
    });
    return rows;
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

TEST(MultiwayJoinTest, TransposeCacheInvalidatedOnSourceMutation) {
  // One join object across two Runs: a mutation of a source BitMat between
  // them must orphan the lazily built transposed columns (version stamp),
  // not serve stale bits. ?y = b is looked up through the transposed
  // column b of ?w <q> ?y; dropping row c keeps b in that TP's fold, so
  // the candidate intersection still passes b and only the transpose
  // cache's version check can tell that column b lost a bit.
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
  EXPECT_EQ(join.Run([](const RawRow&, bool) {}), 2u);
  // One column, one scan of the TP's three rows: within its transpose
  // cost (three triples), so the column is extracted lazily.
  EXPECT_EQ(join.columns_extracted(), 1u);
  EXPECT_EQ(join.rows_scanned(), 3u);
  EXPECT_EQ(join.transposes(), 0u);

  // Unfold away row c of the ?w <q> ?y TP; the rerun must see it.
  TpBitMat& q = f.states[1].mat;
  ASSERT_EQ(q.row_var, "w");
  std::optional<uint32_t> c = ids.ToLocal(
      q.row_kind, *f.graph.dict().SubjectId(Term::Iri("c")));
  ASSERT_TRUE(c.has_value());
  Bitvector keep(q.bm.num_rows(), /*value=*/true);
  keep.Set(*c, false);
  q.bm.Unfold(keep, Dim::kRow);
  EXPECT_EQ(join.Run([](const RawRow&, bool) {}), 1u);
  // The orphaned entry starts afresh: column b is scanned again, over the
  // two remaining rows.
  EXPECT_EQ(join.columns_extracted(), 2u);
  EXPECT_EQ(join.rows_scanned(), 5u);
  EXPECT_EQ(join.transposes(), 0u);
}

TEST(MultiwayJoinTest, FullTransposeInvalidatedOnSourceMutation) {
  // As above, but past the cost rule: seventy ?y columns of ?w <q> ?y are
  // visited, so the first Run ends on a full transpose. Row v adds a
  // second bit to column y0; dropping it keeps y0 in the fold, so only
  // the version check can retire the stale transposed column.
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
  EXPECT_EQ(join.Run([](const RawRow&, bool) {}), 71u);
  // 71 rows and 71 triples: one scan fits the transpose cost, the second
  // would not.
  EXPECT_EQ(join.columns_extracted(), 1u);
  EXPECT_EQ(join.transposes(), 1u);

  TpBitMat& q = f.states[1].mat;
  ASSERT_EQ(q.row_var, "w");
  std::optional<uint32_t> v = ids.ToLocal(
      q.row_kind, *f.graph.dict().SubjectId(Term::Iri("v")));
  ASSERT_TRUE(v.has_value());
  Bitvector keep(q.bm.num_rows(), /*value=*/true);
  keep.Set(*v, false);
  q.bm.Unfold(keep, Dim::kRow);
  EXPECT_EQ(join.Run([](const RawRow&, bool) {}), 70u);
  EXPECT_EQ(join.columns_extracted(), 2u);
  EXPECT_EQ(join.transposes(), 2u);
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
    EXPECT_EQ(join.Run([](const RawRow&, bool) {}),
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
  EXPECT_EQ(join.Run([](const RawRow&, bool) {}, &ctx), 2u);
  ASSERT_EQ(join.transposes(), 1u);
  ASSERT_EQ(join.columns_extracted(), 1u);
  // The one lazy column (a single row position) plus the transpose.
  EXPECT_EQ(control.memory_used(), sizeof(uint32_t) + 64 + held);
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

}  // namespace
}  // namespace lbr
