#include "bitmat/tp_cache.h"

#include <gtest/gtest.h>

#include "bitmat/triple_index.h"
#include "core/engine.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "util/query_control.h"

namespace lbr {
namespace {

using testing::MakeGraph;

TriplePattern Tp(const std::string& s, const std::string& p,
                 const std::string& o) {
  auto term = [](const std::string& text) {
    if (!text.empty() && text[0] == '?') {
      return PatternTerm::Var(text.substr(1));
    }
    return PatternTerm::Fixed(Term::Iri(text));
  };
  return TriplePattern(term(s), term(p), term(o));
}

class TpCacheTest : public ::testing::Test {
 protected:
  TpCacheTest()
      : graph_(MakeGraph({
            {"a", "p", "b"},
            {"a", "p", "c"},
            {"b", "p", "c"},
            {"a", "q", "b"},
        })),
        index_(TripleIndex::Build(graph_)) {}

  Graph graph_;
  TripleIndex index_;
};

TEST_F(TpCacheTest, SecondLoadHits) {
  TpCache cache;
  TpBitMat first = cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"),
                                   true);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  TpBitMat second = cache.GetOrLoad(index_, graph_.dict(),
                                    Tp("?x", "p", "?y"), true);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.bm, second.bm);
}

TEST_F(TpCacheTest, VariableNamesNormalizedInKey) {
  TpCache cache;
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), true);
  TpBitMat renamed = cache.GetOrLoad(index_, graph_.dict(),
                                     Tp("?foo", "p", "?bar"), true);
  EXPECT_EQ(cache.hits(), 1u);
  // The copy carries the caller's variable names.
  EXPECT_EQ(renamed.row_var, "foo");
  EXPECT_EQ(renamed.col_var, "bar");

  // So does a masked copy-out, here of the O-S entry.
  Bitvector row_mask(index_.num_objects(), true);
  ActiveMasks masks;
  masks.row_mask = &row_mask;
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), false);
  TpBitMat masked = cache.GetOrLoadMasked(
      index_, graph_.dict(), Tp("?u", "p", "?v"), false, masks);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(masked.row_kind, DomainKind::kObject);
  EXPECT_EQ(masked.row_var, "v");
  EXPECT_EQ(masked.col_var, "u");
  EXPECT_EQ(masked.bm.Count(), 3u);
}

TEST_F(TpCacheTest, OrientationIsPartOfKey) {
  TpCache cache;
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), true);
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), false);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST_F(TpCacheTest, DiagonalTpsDoNotShareEntries) {
  TpCache cache;
  TpBitMat full = cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"),
                                  true);
  TpBitMat diag = cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?x"),
                                  true);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NE(full.bm.Count(), diag.bm.Count() + 100u);  // sanity: distinct loads
  EXPECT_TRUE(diag.bm.IsEmpty());  // no self-loops under p
}

TEST_F(TpCacheTest, EvictsLruWhenOverBudget) {
  TpCache cache(/*triple_budget=*/3);
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), true);  // 3 bits
  EXPECT_EQ(cache.size(), 1u);
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "q", "?y"), true);  // 1 bit
  // 3 + 1 > 3: the LRU (p) entry is evicted.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_LE(cache.held_triples(), 3u);
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), true);
  EXPECT_EQ(cache.misses(), 3u);  // p had to be reloaded
}

TEST_F(TpCacheTest, EntryLargerThanStripeSliceIsStillCached) {
  // The budget is one global total: with a budget of 16, an entry of
  // cost 3 (more than 16/8) is admitted.
  TpCache cache(/*triple_budget=*/16);
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), true);  // 3 bits
  EXPECT_EQ(cache.size(), 1u);
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), true);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(TpCacheTest, GlobalBudgetEnforcedAcrossStripes) {
  // Budget 3: after inserting p (3 bits) and q (1 bit) the held total is
  // reclaimed down to the budget.
  TpCache cache(/*triple_budget=*/3);
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), true);
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "q", "?y"), true);
  EXPECT_LE(cache.held_triples(), 3u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(TpCacheTest, ClearResets) {
  TpCache cache;
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), true);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.held_triples(), 0u);
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), true);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST_F(TpCacheTest, EngineWithCacheMatchesEngineWithout) {
  EngineOptions cached;
  cached.enable_tp_cache = true;
  Engine with_cache(&index_, &graph_.dict(), cached);
  Engine without(&index_, &graph_.dict());

  const std::string query =
      "SELECT * WHERE { ?x <p> ?y . OPTIONAL { ?y <q> ?z . } }";
  // Run twice so the second run is a pure cache hit.
  ResultTable cold = with_cache.ExecuteToTable(query);
  ResultTable warm = with_cache.ExecuteToTable(query);
  ResultTable plain = without.ExecuteToTable(query);
  EXPECT_EQ(testing::Canonicalize(cold), testing::Canonicalize(plain));
  EXPECT_EQ(testing::Canonicalize(warm), testing::Canonicalize(plain));
  EXPECT_GT(with_cache.tp_cache().hits(), 0u);
}

TEST_F(TpCacheTest, MaskedGetAppliesMasksOnCopyOut) {
  TpCache cache;
  // Warm the cache with an unmasked load.
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), true);

  Bitvector row_mask(index_.num_subjects());
  row_mask.Set(*graph_.dict().SubjectId(Term::Iri("b")));
  ActiveMasks masks;
  masks.row_mask = &row_mask;
  TpBitMat masked = cache.GetOrLoadMasked(index_, graph_.dict(),
                                          Tp("?x", "p", "?y"), true, masks);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(masked.bm.Count(), 1u);  // only (b p c)
  // The cached original is still complete.
  TpBitMat full = cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"),
                                  true);
  EXPECT_EQ(full.bm.Count(), 3u);
}

TEST_F(TpCacheTest, MaskedGetAgreesWithMaskedLoad) {
  TpCache cache;
  cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"), true);

  Bitvector col_mask(index_.num_objects());
  col_mask.Set(*graph_.dict().ObjectId(Term::Iri("c")));
  ActiveMasks masks;
  masks.col_mask = &col_mask;
  TpBitMat from_cache = cache.GetOrLoadMasked(
      index_, graph_.dict(), Tp("?x", "p", "?y"), true, masks);
  TpBitMat from_load =
      LoadTpBitMat(index_, graph_.dict(), Tp("?x", "p", "?y"), true, masks);
  EXPECT_EQ(from_cache.bm, from_load.bm);
}

TEST_F(TpCacheTest, MaskedMissLoadsDirectlyWithoutCaching) {
  TpCache cache;
  Bitvector row_mask(index_.num_subjects(), true);
  ActiveMasks masks;
  masks.row_mask = &row_mask;
  cache.GetOrLoadMasked(index_, graph_.dict(), Tp("?x", "p", "?y"), true,
                        masks);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 0u);  // masked loads are not inserted
}

TEST_F(TpCacheTest, CachedCopiesAreIsolated) {
  // Unfolding the engine's copy must not corrupt the cached original.
  TpCache cache;
  TpBitMat copy1 = cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"),
                                   true);
  Bitvector empty_mask(copy1.bm.num_rows());
  copy1.bm.Unfold(empty_mask, Dim::kRow);  // wipe the copy
  EXPECT_TRUE(copy1.bm.IsEmpty());
  TpBitMat copy2 = cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"),
                                   true);
  EXPECT_EQ(copy2.bm.Count(), 3u);  // original intact
}

TEST_F(TpCacheTest, HitIsZeroCopySnapshot) {
  // A hit shares the cached entry's row handles — no payload duplication.
  TpCache cache;
  TpBitMat first = cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"),
                                   true);
  TpBitMat second = cache.GetOrLoad(index_, graph_.dict(),
                                    Tp("?x", "p", "?y"), true);
  bool any_row = false;
  first.bm.NonEmptyRows().ForEachSetBit([&](uint32_t r) {
    any_row = true;
    EXPECT_EQ(first.bm.SharedRow(r).get(), second.bm.SharedRow(r).get());
  });
  EXPECT_TRUE(any_row);
}

TEST_F(TpCacheTest, MutatingSnapshotNeverAltersCacheOrSibling) {
  // The satellite's aliasing contract: Unfold, SetRow, and masked copy-out
  // on one snapshot leave the cached entry and sibling snapshots intact.
  TpCache cache;
  TpBitMat snap1 = cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"),
                                   true);
  TpBitMat snap2 = cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"),
                                   true);

  // Column unfold clones only the touched rows of snap1.
  Bitvector col_mask(snap1.bm.num_cols());
  col_mask.Set(*graph_.dict().ObjectId(Term::Iri("c")));
  snap1.bm.Unfold(col_mask, Dim::kCol);
  EXPECT_LT(snap1.bm.Count(), 3u);
  EXPECT_EQ(snap2.bm.Count(), 3u);

  // Direct SetRow on snap2: snap1 and the cache stay isolated.
  snap2.bm.SetRow(0, CompressedRow());
  TpBitMat snap3 = cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"),
                                   true);
  EXPECT_EQ(snap3.bm.Count(), 3u);

  // Masked copy-out shares untouched rows with the cache but still
  // isolates them: wiping the masked result must not wipe the entry.
  Bitvector row_mask(index_.num_subjects(), true);
  ActiveMasks masks;
  masks.row_mask = &row_mask;
  TpBitMat masked = cache.GetOrLoadMasked(index_, graph_.dict(),
                                          Tp("?x", "p", "?y"), true, masks);
  EXPECT_EQ(masked.bm.Count(), 3u);
  Bitvector none(masked.bm.num_rows());
  masked.bm.Unfold(none, Dim::kRow);
  TpBitMat snap4 = cache.GetOrLoad(index_, graph_.dict(), Tp("?x", "p", "?y"),
                                   true);
  EXPECT_EQ(snap4.bm.Count(), 3u);
}

TEST_F(TpCacheTest, MaskedCopyOutSharesUntouchedRows) {
  TpCache cache;
  TpBitMat cached = cache.GetOrLoad(index_, graph_.dict(),
                                    Tp("?x", "p", "?y"), true);
  // Row mask only: every surviving row is shared by handle.
  Bitvector row_mask(index_.num_subjects());
  uint32_t b_id = *graph_.dict().SubjectId(Term::Iri("b"));
  row_mask.Set(b_id);
  ActiveMasks masks;
  masks.row_mask = &row_mask;
  TpBitMat masked = cache.GetOrLoadMasked(index_, graph_.dict(),
                                          Tp("?x", "p", "?y"), true, masks);
  EXPECT_EQ(masked.bm.SharedRow(b_id).get(), cached.bm.SharedRow(b_id).get());

  // Column mask keeping all of row b's bits: still shared. Object "c" is
  // row b's only bit.
  Bitvector col_mask(index_.num_objects());
  col_mask.Set(*graph_.dict().ObjectId(Term::Iri("c")));
  ActiveMasks col_masks;
  col_masks.col_mask = &col_mask;
  TpBitMat col_masked = cache.GetOrLoadMasked(
      index_, graph_.dict(), Tp("?x", "p", "?y"), true, col_masks);
  EXPECT_EQ(col_masked.bm.SharedRow(b_id).get(),
            cached.bm.SharedRow(b_id).get());
  // Row a ({b, c}) loses a bit: fresh handle.
  uint32_t a_id = *graph_.dict().SubjectId(Term::Iri("a"));
  EXPECT_NE(col_masked.bm.SharedRow(a_id).get(),
            cached.bm.SharedRow(a_id).get());
  EXPECT_EQ(col_masked.bm.Row(a_id).Count(), 1u);
  EXPECT_EQ(cached.bm.Row(a_id).Count(), 2u);
}

TEST_F(TpCacheTest, QueryStatsSurfaceCacheCounters) {
  EngineOptions options;
  options.enable_tp_cache = true;
  Engine engine(&index_, &graph_.dict(), options);
  // Triangle query: every TP holds two jvars, so the prune fixpoint must
  // fold column dimensions (the memoized path) on every pass.
  const std::string query =
      "SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . ?a <p> ?c . }";

  QueryStats cold;
  engine.ExecuteToTable(query, &cold);
  EXPECT_GT(cold.tp_cache_misses, 0u);
  EXPECT_GT(cold.fold_cache_misses, 0u);

  QueryStats warm;
  engine.ExecuteToTable(query, &warm);
  EXPECT_GT(warm.tp_cache_hits, 0u);
  EXPECT_GT(warm.tp_cache_held_triples, 0u);
}

// The snapshot tier's byte meter charges what an entry holds: 3 non-empty
// rows over a 100k-row subject dimension cost their sparse row arrays and
// the non-empty-row words, not one handle slot per row of the dimension.
TEST_F(TpCacheTest, SparseEntryIsChargedForItsRowsNotItsDimension) {
  constexpr int kSubjects = 100000;
  std::vector<std::vector<std::string>> triples;
  triples.reserve(kSubjects + 3);
  for (int i = 0; i < kSubjects; ++i) {
    triples.push_back({"s" + std::to_string(i), "filler", "o"});
  }
  triples.push_back({"s1", "p", "o"});
  triples.push_back({"s70000", "p", "o"});
  triples.push_back({"s99999", "p", "o"});
  // Its own graph: the fixture's dimensions are tiny.
  Graph graph = MakeGraph(triples);
  TripleIndex index = TripleIndex::Build(graph);
  ASSERT_GE(index.num_subjects(), static_cast<uint32_t>(kSubjects));

  QueryControl meter;
  TpCache cache(/*triple_budget=*/1u << 20);
  cache.SetMemoryAccounting(&meter, /*budget_bytes=*/0);
  TpBitMat m =
      cache.GetOrLoad(index, graph.dict(), Tp("?x", "p", "?y"), true);
  ASSERT_EQ(m.bm.num_rows(), index.num_subjects());
  ASSERT_EQ(m.bm.NonEmptyRows().Count(), 3u);
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_GT(meter.memory_used(), 0u);
  EXPECT_LT(meter.memory_used(),
            static_cast<uint64_t>(kSubjects) * sizeof(BitMat::RowHandle));
}

}  // namespace
}  // namespace lbr
