#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bitmat/snapshot_format.h"
#include "core/database.h"
#include "rdf/term.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "workload/dbpedia_gen.h"
#include "workload/lubm_gen.h"
#include "workload/query_sets.h"
#include "workload/uniprot_gen.h"

namespace lbr {
namespace {

using testing::TempPath;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Locates a section by kind straight from the on-disk header, so the
/// corruption tests hit the intended bytes regardless of layout changes.
SnapSectionEntry FindSection(const std::string& bytes, uint32_t kind) {
  const uint8_t* base = reinterpret_cast<const uint8_t*>(bytes.data());
  for (uint32_t i = 0; i < kSnapNumSections; ++i) {
    SnapSectionEntry e = ReadPod<SnapSectionEntry>(
        base, sizeof(SnapHeader) + i * sizeof(SnapSectionEntry));
    if (e.kind == kind) return e;
  }
  ADD_FAILURE() << "section kind " << kind << " not found";
  return {};
}

/// Recomputes the checksum of section `kind` in its section-table entry,
/// then the header checksum over the table, so an edited section passes
/// every checksum and only semantic validation can reject it.
void Reseal(std::string* bytes, uint32_t kind) {
  uint8_t* base = reinterpret_cast<uint8_t*>(bytes->data());
  for (uint32_t i = 0; i < kSnapNumSections; ++i) {
    const uint64_t at = sizeof(SnapHeader) + i * sizeof(SnapSectionEntry);
    SnapSectionEntry e = ReadPod<SnapSectionEntry>(base, at);
    if (e.kind != kind) continue;
    e.checksum = Checksum64(base + e.offset, e.size);
    std::memcpy(base + at, &e, sizeof(e));
  }
  const uint64_t head = Checksum64(base, kSnapHeaderBytes - 8);
  std::memcpy(base + kSnapHeaderBytes - 8, &head, sizeof(head));
}

/// The locator of side `side` of predicate `p`: the meta section ends with
/// the locators, two per predicate in slot order (S-O, then O-S).
SnapSliceLocEntry FindSliceLoc(const std::string& bytes, uint32_t np,
                               uint32_t p, TripleIndex::Side side) {
  SnapSectionEntry meta = FindSection(bytes, kSnapSectionMeta);
  const uint64_t slot = 2 * uint64_t{p} + static_cast<uint64_t>(side);
  return ReadPod<SnapSliceLocEntry>(
      reinterpret_cast<const uint8_t*>(bytes.data()),
      meta.offset + meta.size -
          (2 * uint64_t{np} - slot) * sizeof(SnapSliceLocEntry));
}

uint32_t MemberOf(const Database& db) {
  std::optional<uint32_t> p = db.dict().PredicateId(Term::Iri(lubm::kMemberOf));
  EXPECT_TRUE(p.has_value());
  return p.value_or(0);
}

SnapshotErrorCode OpenErrorCode(const std::string& path,
                                SnapshotOptions snap = {}) {
  try {
    Database::OpenSnapshot(path, {}, snap);
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "OpenSnapshot(" << path << ") did not throw";
  return SnapshotErrorCode::kIo;
}

Database SmallLubmDb() {
  LubmConfig cfg;
  cfg.num_universities = 2;
  return Database::Build(GenerateLubm(cfg));
}

/// Saves `heap_db` as a snapshot, reopens it mapped, and requires every
/// query in `queries` to return the bit-identical result multiset.
void ExpectRoundTrip(Database& heap_db, const std::vector<BenchQuery>& queries,
                     const std::string& name) {
  const std::string path = TempPath(name);
  heap_db.SaveSnapshot(path);
  Database snap_db = Database::OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(snap_db.index().mapped());
  ASSERT_FALSE(heap_db.index().mapped());
  EXPECT_EQ(snap_db.num_triples(), heap_db.num_triples());
  for (const BenchQuery& q : queries) {
    SCOPED_TRACE(q.id);
    EXPECT_EQ(testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)),
              testing::Canonicalize(snap_db.engine().ExecuteToTable(q.sparql)));
  }
}

TEST(SnapshotTest, RoundTripLubm) {
  Database db = SmallLubmDb();
  ExpectRoundTrip(db, LubmQueries(), "snap_lubm.snap");
}

TEST(SnapshotTest, RoundTripUniprot) {
  UniprotConfig cfg;
  Database db = Database::Build(GenerateUniprot(cfg));
  ExpectRoundTrip(db, UniprotQueries(), "snap_uniprot.snap");
}

TEST(SnapshotTest, RoundTripDbpedia) {
  DbpediaConfig cfg;
  Database db = Database::Build(GenerateDbpedia(cfg));
  ExpectRoundTrip(db, DbpediaQueries(), "snap_dbpedia.snap");
}

TEST(SnapshotTest, StatsSurviveWithoutCollect) {
  // OpenSnapshot deserializes PredicateStats instead of re-collecting;
  // the table must match what the heap build derived.
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_stats.snap");
  heap_db.SaveSnapshot(path);
  Database snap_db = Database::OpenSnapshot(path);
  std::remove(path.c_str());
  EXPECT_EQ(snap_db.predicate_stats().total_triples(),
            heap_db.predicate_stats().total_triples());
}

TEST(SnapshotTest, LazyMaterializationIsCountedOncePerPredicate) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_lazy.snap");
  heap_db.SaveSnapshot(path);
  Database db = Database::OpenSnapshot(path);
  std::remove(path.c_str());

  const std::string q = LubmQueries()[0].sparql;
  QueryStats first, second;
  ResultTable t1 = db.engine().ExecuteToTable(q, &first);
  ResultTable t2 = db.engine().ExecuteToTable(q, &second);
  EXPECT_EQ(testing::Canonicalize(t1), testing::Canonicalize(t2));
  // The first run pays the materializations; with no budget nothing spills,
  // so the warm run touches only already-resident slices.
  EXPECT_GT(first.snapshot_materializations, 0u);
  EXPECT_EQ(second.snapshot_materializations, 0u);
  EXPECT_EQ(first.snapshot_spills, 0u);
  EXPECT_GT(first.snapshot_resident_bytes, 0u);
}

TEST(SnapshotTest, FreshSnapshotOpensFullyVerified) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_fresh.snap");
  heap_db.SaveSnapshot(path);
  const std::string bytes = ReadFileBytes(path);
  EXPECT_EQ(ReadPod<SnapHeader>(
                reinterpret_cast<const uint8_t*>(bytes.data()), 0)
                .version,
            kSnapVersion);
  SnapshotOptions snap;
  snap.verify_extents = true;
  Database db = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());
  EXPECT_TRUE(db.VerifySnapshot().ok());
  EXPECT_EQ(db.num_triples(), heap_db.num_triples());
}

TEST(SnapshotTest, BoundObjectTpMaterializesOnlyTheObjectSide) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_side.snap");
  heap_db.SaveSnapshot(path);
  // The cost planner estimates from the load-time statistics, so the only
  // index reads are the engine's prefetch and the TP load itself.
  EngineOptions options;
  options.planner = PlannerMode::kCost;
  Database db = Database::OpenSnapshot(path, options);
  std::remove(path.c_str());
  const uint32_t member_of = MemberOf(db);
  ASSERT_EQ(db.index().snapshot_materializations(), 0u);
  ASSERT_EQ(db.index().snapshot_resident_bytes(), 0u);

  // (?x :memberOf :dept) reads one row of the O-S side and nothing else:
  // one side prefetched, one side materialized.
  const std::string q = "SELECT ?x WHERE { ?x <" +
                        std::string(lubm::kMemberOf) + "> <" +
                        LubmDepartmentIri(0, 0) + "> . }";
  QueryStats stats;
  ResultTable got = db.engine().ExecuteToTable(q, &stats);
  EXPECT_FALSE(got.rows.empty());
  EXPECT_EQ(testing::Canonicalize(heap_db.engine().ExecuteToTable(q)),
            testing::Canonicalize(got));
  EXPECT_EQ(stats.snapshot_materializations, 1u);
  EXPECT_EQ(stats.snapshot_prefetches, 1u);
  const uint64_t resident = db.index().snapshot_resident_bytes();

  // That one slice is the O-S side: pinning it finds it resident, and the
  // resident bytes are exactly its own.
  TripleIndex::SlicePin os =
      db.index().Slice(member_of, TripleIndex::Side::kOS);
  EXPECT_EQ(db.index().snapshot_materializations(), 1u);
  EXPECT_EQ(resident, os->heap_bytes);

  // The S-O side was still on disk: touching it is a second, separate
  // materialization that adds only its own bytes.
  TripleIndex::SlicePin so =
      db.index().Slice(member_of, TripleIndex::Side::kSO);
  EXPECT_EQ(db.index().snapshot_materializations(), 2u);
  EXPECT_EQ(db.index().snapshot_resident_bytes(), resident + so->heap_bytes);
}

TEST(SnapshotTest, VerifyAndParanoidReadsCoverBothSides) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_sides.snap");
  heap_db.SaveSnapshot(path);
  const std::string clean = ReadFileBytes(path);
  const uint32_t np = heap_db.index().num_predicates();
  const uint32_t p = MemberOf(heap_db);
  const SnapSectionEntry ext = FindSection(clean, kSnapSectionExtents);
  SnapshotOptions paranoid;
  paranoid.paranoid = true;
  SnapshotOptions verify;
  verify.verify_extents = true;

  {
    // Clean file: paranoid reads serve each side from its own extent copy.
    Database db = Database::OpenSnapshot(path, {}, paranoid);
    EXPECT_TRUE(db.VerifySnapshot().ok());
    for (TripleIndex::Side side :
         {TripleIndex::Side::kSO, TripleIndex::Side::kOS}) {
      TripleIndex::SlicePin pin = db.index().Slice(p, side);
      EXPECT_EQ(pin->extent_copy.size(),
                FindSliceLoc(clean, np, p, side).extent_words);
    }
  }

  for (TripleIndex::Side side :
       {TripleIndex::Side::kSO, TripleIndex::Side::kOS}) {
    const TripleIndex::Side other = side == TripleIndex::Side::kSO
                                        ? TripleIndex::Side::kOS
                                        : TripleIndex::Side::kSO;
    SCOPED_TRACE(side == TripleIndex::Side::kSO ? "S-O damaged"
                                                : "O-S damaged");
    const SnapSliceLocEntry loc = FindSliceLoc(clean, np, p, side);
    ASSERT_GT(loc.extent_words, 0u);
    std::string bytes = clean;
    const uint64_t off = ext.offset + loc.extent_off + loc.extent_words * 2;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x5a);
    WriteFileBytes(path, bytes);

    // The sweep and a fully verified open both see the damaged side.
    {
      Database db = Database::OpenSnapshot(path);
      EXPECT_EQ(db.VerifySnapshot().corrupt, std::vector<uint32_t>{p});
    }
    EXPECT_EQ(OpenErrorCode(path, verify), SnapshotErrorCode::kChecksum);

    // Paranoid reads verify each side's copy when that side is read: the
    // intact side serves, the damaged one fails, and from then on the
    // predicate's quarantine fails both.
    Database db = Database::OpenSnapshot(path, {}, paranoid);
    EXPECT_NO_THROW(db.index().Slice(p, other));
    try {
      db.index().Slice(p, side);
      FAIL() << "damaged side did not fail its checksum";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum);
    }
    EXPECT_EQ(db.index().QuarantinedSlices(), std::vector<uint32_t>{p});
    EXPECT_THROW(db.index().Slice(p, other), SnapshotError);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, ResaveFromMappedIndex) {
  // The writer must work from the mapped backend too (materializing each
  // slice as it streams out): snapshot -> open -> snapshot -> open.
  Database heap_db = SmallLubmDb();
  const std::string path1 = TempPath("snap_gen1.snap");
  const std::string path2 = TempPath("snap_gen2.snap");
  heap_db.SaveSnapshot(path1);
  Database gen1 = Database::OpenSnapshot(path1);
  gen1.SaveSnapshot(path2);
  Database gen2 = Database::OpenSnapshot(path2);
  std::remove(path1.c_str());
  std::remove(path2.c_str());
  for (const BenchQuery& q : LubmQueries()) {
    SCOPED_TRACE(q.id);
    EXPECT_EQ(testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)),
              testing::Canonicalize(gen2.engine().ExecuteToTable(q.sparql)));
  }
}

// ---------------------------------------------------------------------------
// Rejection: every malformed input fails closed with a structured code.
// ---------------------------------------------------------------------------

class SnapshotRejectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("snap_reject.snap");
    Database db = SmallLubmDb();
    db.SaveSnapshot(path_);
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), kSnapHeaderBytes);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Rewrites the file with the uint32 at `off` inside section `kind`
  /// replaced by `value`, with that section and the header re-sealed.
  void RewriteSealed(uint32_t kind, uint64_t off, uint32_t value) {
    SnapSectionEntry s = FindSection(bytes_, kind);
    ASSERT_LE(off + sizeof(value), s.size);
    std::string mutated = bytes_;
    std::memcpy(&mutated[s.offset + off], &value, sizeof(value));
    Reseal(&mutated, kind);
    WriteFileBytes(path_, mutated);
  }

  /// Rewrites the file with byte `off` flipped.
  void FlipByte(uint64_t off) {
    ASSERT_LT(off, bytes_.size());
    std::string mutated = bytes_;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x5a);
    WriteFileBytes(path_, mutated);
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotRejectTest, TinyFile) {
  WriteFileBytes(path_, bytes_.substr(0, 4));
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kTruncated);
}

TEST_F(SnapshotRejectTest, BadMagic) {
  FlipByte(0);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kBadMagic);
}

TEST_F(SnapshotRejectTest, BadVersion) {
  // The version field sits right after the 8-byte magic; its check runs
  // before the header checksum so the code is specific, not kChecksum.
  FlipByte(8);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kBadVersion);
}

TEST_F(SnapshotRejectTest, VersionOneIsRejected) {
  // Version 1 checksummed with FNV-1a; this build reads only version 2.
  std::string mutated = bytes_;
  const uint32_t v1 = 1;
  std::memcpy(&mutated[offsetof(SnapHeader, version)], &v1, sizeof(v1));
  WriteFileBytes(path_, mutated);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kBadVersion);
}

TEST_F(SnapshotRejectTest, TruncatedBody) {
  WriteFileBytes(path_, bytes_.substr(0, bytes_.size() * 3 / 4));
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kTruncated);
}

TEST_F(SnapshotRejectTest, HeaderCrc) {
  // A flipped section-table byte keeps magic/version intact but must trip
  // the header checksum before any section is trusted.
  FlipByte(sizeof(SnapHeader) + 4);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kChecksum);
}

TEST_F(SnapshotRejectTest, DictChecksum) {
  SnapSectionEntry dict = FindSection(bytes_, kSnapSectionDict);
  ASSERT_GT(dict.size, 8u);
  FlipByte(dict.offset + dict.size / 2);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kChecksum);
}

TEST_F(SnapshotRejectTest, MetaChecksum) {
  SnapSectionEntry meta = FindSection(bytes_, kSnapSectionMeta);
  ASSERT_GT(meta.size, 8u);
  FlipByte(meta.offset + meta.size / 2);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kChecksum);
}

// The sections below each checksum clean after the rewrite; they only
// disagree with one another. Open must reject the file rather than hand the
// engine a stats table or dictionary that does not match the index.

TEST_F(SnapshotRejectTest, StatsPredicateCountDisagreesWithMeta) {
  // The stats section opens with its predicate count; 0 decodes cleanly
  // and would leave the cost planner reading past an empty table.
  RewriteSealed(kSnapSectionStats, 0, 0);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kCorrupt);
}

TEST_F(SnapshotRejectTest, MetaDimensionsDisagreeWithDict) {
  // Meta opens with |Vs|, |Vp|, |Vo|, |Vso| as uint32s. Shrinking |Vs|,
  // |Vo| or |Vso| keeps the meta section decodable but no longer matches
  // the dictionary's id layout.
  SnapSectionEntry meta = FindSection(bytes_, kSnapSectionMeta);
  for (uint64_t off : {uint64_t{0}, uint64_t{8}, uint64_t{12}}) {
    SCOPED_TRACE(off);
    uint32_t dim = 0;
    std::memcpy(&dim, &bytes_[meta.offset + off], sizeof(dim));
    ASSERT_GT(dim, 1u);
    RewriteSealed(kSnapSectionMeta, off, dim - 1);
    EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kCorrupt);
  }
}

TEST_F(SnapshotRejectTest, ExtentChecksumEager) {
  // verify_extents=true promotes the lazy per-slice checksums to open time.
  // Corrupt the section densely: a single flipped byte could land in the
  // inter-slice page padding, which no slice's checksum covers (dead bytes).
  SnapSectionEntry ext = FindSection(bytes_, kSnapSectionExtents);
  ASSERT_GT(ext.size, 8u);
  std::string mutated = bytes_;
  for (uint64_t off = ext.offset; off < ext.offset + ext.size; off += 32) {
    mutated[off] = static_cast<char>(mutated[off] ^ 0x5a);
  }
  WriteFileBytes(path_, mutated);
  SnapshotOptions snap;
  snap.verify_extents = true;
  EXPECT_EQ(OpenErrorCode(path_, snap), SnapshotErrorCode::kChecksum);
}

TEST_F(SnapshotRejectTest, ExtentChecksumLazy) {
  // Corrupt the whole extents section: open succeeds (lazy contract), but
  // the first query to materialize any slice must throw kChecksum.
  SnapSectionEntry ext = FindSection(bytes_, kSnapSectionExtents);
  std::string mutated = bytes_;
  for (uint64_t off = ext.offset; off < ext.offset + ext.size; off += 32) {
    mutated[off] = static_cast<char>(mutated[off] ^ 0x5a);
  }
  WriteFileBytes(path_, mutated);
  Database db = Database::OpenSnapshot(path_);
  try {
    db.engine().ExecuteToTable(LubmQueries()[0].sparql);
    FAIL() << "query over corrupted extents did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum);
  }
}

TEST_F(SnapshotRejectTest, RowDirChecksumLazy) {
  SnapSectionEntry dir = FindSection(bytes_, kSnapSectionRowDir);
  std::string mutated = bytes_;
  for (uint64_t off = dir.offset; off < dir.offset + dir.size; off += 8) {
    mutated[off] = static_cast<char>(mutated[off] ^ 0x5a);
  }
  WriteFileBytes(path_, mutated);
  Database db = Database::OpenSnapshot(path_);
  EXPECT_THROW(db.engine().ExecuteToTable(LubmQueries()[0].sparql),
               SnapshotError);
}

// ---------------------------------------------------------------------------
// Budgeted spill: correctness under memory pressure.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, BudgetedSpillStaysBitIdentical) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_budget.snap");
  heap_db.SaveSnapshot(path);

  // Measure the unbudgeted working set first so the budget is guaranteed
  // smaller than the full index on any build config.
  uint64_t full_bytes = 0;
  {
    Database db = Database::OpenSnapshot(path);
    for (const BenchQuery& q : LubmQueries()) {
      db.engine().ExecuteToTable(q.sparql);
    }
    full_bytes = db.index().snapshot_resident_bytes();
  }
  ASSERT_GT(full_bytes, 0u);

  SnapshotOptions snap;
  snap.memory_budget_bytes = full_bytes / 4 + 1;
  Database db = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());

  uint64_t total_spills = 0;
  for (const BenchQuery& q : LubmQueries()) {
    SCOPED_TRACE(q.id);
    QueryStats stats;
    ResultTable got = db.engine().ExecuteToTable(q.sparql, &stats);
    EXPECT_EQ(testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)),
              testing::Canonicalize(got));
    EXPECT_EQ(stats.snapshot_budget_bytes, snap.memory_budget_bytes);
    total_spills += stats.snapshot_spills;
  }
  // A budget a quarter of the working set cannot hold every predicate: the
  // sweep must have spilled and re-materialized cold slices.
  EXPECT_GT(total_spills, 0u);
}

TEST(SnapshotConcurrencyTest, ParallelQueriesUnderBudget) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_conc.snap");
  heap_db.SaveSnapshot(path);

  std::vector<BenchQuery> queries = LubmQueries();
  std::vector<std::vector<std::string>> expected;
  for (const BenchQuery& q : queries) {
    expected.push_back(
        testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)));
  }

  SnapshotOptions snap;
  snap.memory_budget_bytes = 256 * 1024;
  Database db = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());

  // Hammer materialize/spill from a pool of batch workers (one engine per
  // slot, sharing the mapped index, the metered TP cache, and the spill
  // hook); every query must come back heap-identical.
  std::vector<std::string> stream;
  std::vector<size_t> stream_qi;
  for (int rep = 0; rep < 4; ++rep) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      stream.push_back(queries[(qi + static_cast<size_t>(rep)) %
                               queries.size()].sparql);
      stream_qi.push_back((qi + static_cast<size_t>(rep)) % queries.size());
    }
  }
  ThreadPool pool(4);
  std::vector<BatchResult> results = db.ExecuteBatch(stream, &pool);
  ASSERT_EQ(results.size(), stream.size());
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(queries[stream_qi[i]].id);
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_EQ(testing::Canonicalize(results[i].table),
              expected[stream_qi[i]]);
  }
}

TEST(SnapshotConcurrencyTest, BothSidesOfOnePredicateUnderTinyBudget) {
  // Subject-bound TPs read memberOf's S-O side and object-bound ones its
  // O-S side, concurrently, under a budget so small that every slice spills
  // as soon as no runner pins it, so the two sides of one predicate
  // materialize and spill independently of each other.
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_sides_conc.snap");
  heap_db.SaveSnapshot(path);
  const std::string member_of = std::string("<") + lubm::kMemberOf + ">";
  std::vector<std::string> queries;
  for (uint32_t d = 0; d < 3; ++d) {
    const std::string dept = LubmDepartmentIri(0, d);
    queries.push_back("SELECT ?x WHERE { ?x " + member_of + " <" + dept +
                      "> . }");
    queries.push_back("SELECT ?d WHERE { <" + dept + "/GradStudent" +
                      std::to_string(d) + "> " + member_of + " ?d . }");
  }
  queries.push_back("SELECT ?x ?d WHERE { ?x " + member_of + " ?d . }");
  std::vector<std::vector<std::string>> expected;
  for (const std::string& q : queries) {
    expected.push_back(
        testing::Canonicalize(heap_db.engine().ExecuteToTable(q)));
    ASSERT_FALSE(expected.back().empty()) << q;
  }

  SnapshotOptions snap;
  snap.memory_budget_bytes = 1;
  Database db = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());
  std::vector<std::string> stream;
  std::vector<size_t> stream_qi;
  for (size_t rep = 0; rep < 8; ++rep) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      stream_qi.push_back((qi * 3 + rep) % queries.size());
      stream.push_back(queries[stream_qi.back()]);
    }
  }
  ThreadPool pool(4);
  std::vector<BatchResult> results = db.ExecuteBatch(stream, &pool);
  ASSERT_EQ(results.size(), stream.size());
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(stream[i]);
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_EQ(testing::Canonicalize(results[i].table),
              expected[stream_qi[i]]);
  }
  EXPECT_GT(db.index().snapshot_spills(), 0u);
}

// ---------------------------------------------------------------------------
// Fault injection (DESIGN.md §12): crash-safe writes, fail-closed taxonomy
// per site, quarantine, and paranoid reads.
// ---------------------------------------------------------------------------

class SnapshotFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisarmAll();
    FaultRegistry::Instance().ResetCounters();
  }
  void TearDown() override {
    FaultRegistry::Instance().DisarmAll();
    FaultRegistry::Instance().ResetCounters();
  }

  /// Arms `site` with `spec` or fails the test with the parse error.
  static void Arm(const std::string& site, const std::string& spec) {
    std::string error;
    ASSERT_TRUE(FaultRegistry::Instance().Arm(site, spec, &error)) << error;
  }

  /// The temp name SnapshotIO::Write uses in this process.
  static std::string TempFileFor(const std::string& path) {
    return path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  }
};

TEST_F(SnapshotFaultTest, TornWriteNeverCorruptsPreviousSnapshot) {
  // The crash-safety invariant: a SaveSnapshot interrupted at the create,
  // write, fsync, or rename boundary leaves the previous snapshot at
  // `path` bit-identical and openable, and no temp file behind.
  LubmConfig small;
  small.num_universities = 1;
  Database db_old = Database::Build(GenerateLubm(small));
  Database db_new = SmallLubmDb();  // 2 universities: different content
  ASSERT_NE(db_old.num_triples(), db_new.num_triples());

  const std::string path = TempPath("snap_torn.snap");
  db_old.SaveSnapshot(path);
  const std::string old_bytes = ReadFileBytes(path);

  for (const char* site :
       {"snapshot.write.create", "snapshot.write.write",
        "snapshot.write.fsync", "snapshot.write.rename"}) {
    SCOPED_TRACE(site);
    Arm(site, "once");
    try {
      db_new.SaveSnapshot(path);
      FAIL() << "interrupted save did not throw";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrorCode::kIo);
      // Satellite: the errno detail must surface in the message.
      EXPECT_NE(std::string(e.what()).find("Input/output error"),
                std::string::npos)
          << e.what();
    }
    // Bit-identical old snapshot, still openable, no temp litter.
    EXPECT_EQ(ReadFileBytes(path), old_bytes);
    EXPECT_NE(::access(TempFileFor(path).c_str(), F_OK), 0);
    Database reopened = Database::OpenSnapshot(path);
    EXPECT_EQ(reopened.num_triples(), db_old.num_triples());
  }

  // The dirsync site fires AFTER the atomic rename: the error still
  // surfaces (the rename's durability is in question) but `path` now holds
  // the complete NEW snapshot — the invariant is "always a complete,
  // openable snapshot", not "always the old one".
  Arm("snapshot.write.dirsync", "once");
  EXPECT_THROW(db_new.SaveSnapshot(path), SnapshotError);
  EXPECT_NE(::access(TempFileFor(path).c_str(), F_OK), 0);
  Database after_dirsync = Database::OpenSnapshot(path);
  EXPECT_EQ(after_dirsync.num_triples(), db_new.num_triples());
  std::remove(path.c_str());
}

TEST_F(SnapshotFaultTest, OpenSitesFailClosedAsIoErrors) {
  Database db = SmallLubmDb();
  const std::string path = TempPath("snap_opensite.snap");
  db.SaveSnapshot(path);

  Arm("snapshot.open", "once");
  EXPECT_EQ(OpenErrorCode(path), SnapshotErrorCode::kIo);
  // once self-disarmed: the next open succeeds.
  EXPECT_NO_THROW(Database::OpenSnapshot(path));

  Arm("mapped_file.map", "once");
  EXPECT_EQ(OpenErrorCode(path), SnapshotErrorCode::kIo);
  EXPECT_NO_THROW(Database::OpenSnapshot(path));
  std::remove(path.c_str());
}

TEST_F(SnapshotFaultTest, ChecksumFaultQuarantinesOnlyThatPredicate) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_quarantine.snap");
  heap_db.SaveSnapshot(path);
  Database db = Database::OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_GE(db.index().num_predicates(), 2u);

  // Force a checksum mismatch on predicate 0's first materialization.
  Arm("index.checksum", "once");
  try {
    db.index().Slice(0, TripleIndex::Side::kSO);
    FAIL() << "forced checksum mismatch did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum);
  }

  // Degraded mode: predicate 0 is quarantined and fails fast on every
  // subsequent touch; other predicates keep serving.
  EXPECT_EQ(db.index().snapshot_quarantined(), 1u);
  try {
    db.index().Slice(0, TripleIndex::Side::kSO);
    FAIL() << "quarantined predicate did not fail fast";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum);
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
  }
  EXPECT_THROW(db.index().Slice(0, TripleIndex::Side::kOS), SnapshotError);
  EXPECT_NO_THROW(db.index().Slice(1, TripleIndex::Side::kSO));

  // The verify report distinguishes quarantined (runtime state) from
  // corrupt (bytes on disk — none here, the mismatch was injected).
  Database::SnapshotVerifyReport report = db.VerifySnapshot();
  EXPECT_TRUE(report.mapped);
  EXPECT_TRUE(report.corrupt.empty());
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], 0u);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(db.index().QuarantinedSlices(), std::vector<uint32_t>{0u});

  // Heap-mode databases verify trivially clean.
  Database::SnapshotVerifyReport heap_report = heap_db.VerifySnapshot();
  EXPECT_FALSE(heap_report.mapped);
  EXPECT_TRUE(heap_report.ok());
}

TEST_F(SnapshotFaultTest, TransientMaterializeFaultIsRetriedInvisibly) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_retry.snap");
  heap_db.SaveSnapshot(path);
  Database db = Database::OpenSnapshot(path);
  std::remove(path.c_str());

  // nth=2: every second materialization attempt faults; the retry gets a
  // fresh crossing and lands. The whole query sweep must come back
  // bit-identical with the recovery visible only in the stats.
  Arm("index.materialize", "nth=2");
  uint64_t retries = 0;
  for (const BenchQuery& q : LubmQueries()) {
    SCOPED_TRACE(q.id);
    QueryStats stats;
    EXPECT_EQ(testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)),
              testing::Canonicalize(db.engine().ExecuteToTable(q.sparql,
                                                               &stats)));
    retries += stats.fault_retries;
  }
  EXPECT_GT(retries, 0u);

  // nth=1 fires on every attempt: the retry budget exhausts and the fault
  // surfaces as a structured error — the query fails, the process doesn't.
  FaultRegistry::Instance().DisarmAll();
  Arm("tp_loader.load", "nth=1");
  EXPECT_THROW(db.engine().ExecuteToTable(LubmQueries()[0].sparql),
               FaultInjectedError);
  FaultRegistry::Instance().DisarmAll();
  EXPECT_NO_THROW(db.engine().ExecuteToTable(LubmQueries()[0].sparql));
}

TEST_F(SnapshotFaultTest, ChargeFaultLeavesSliceUnpublished) {
  // query_control.charge is a permanent site on the metered path: the
  // injected failure unwinds the materialization before the slice is
  // published, so the next touch starts clean and succeeds.
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_charge.snap");
  heap_db.SaveSnapshot(path);
  SnapshotOptions snap;
  snap.memory_budget_bytes = 64 * 1024 * 1024;
  Database db = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());

  Arm("query_control.charge", "once");
  EXPECT_THROW(db.engine().ExecuteToTable(LubmQueries()[0].sparql),
               FaultInjectedError);
  EXPECT_EQ(testing::Canonicalize(db.engine().ExecuteToTable(
                LubmQueries()[0].sparql)),
            testing::Canonicalize(heap_db.engine().ExecuteToTable(
                LubmQueries()[0].sparql)));
}

TEST_F(SnapshotFaultTest, ParanoidModeServesIdenticalResults) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_paranoid.snap");
  heap_db.SaveSnapshot(path);

  SnapshotOptions snap;
  snap.paranoid = true;
  Database db = Database::OpenSnapshot(path, {}, snap);
  for (const BenchQuery& q : LubmQueries()) {
    SCOPED_TRACE(q.id);
    EXPECT_EQ(testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)),
              testing::Canonicalize(db.engine().ExecuteToTable(q.sparql)));
  }

  // Paranoid reads keep the same fail-closed taxonomy: corrupted extents
  // trip the checksum on the pread copy.
  std::string bytes = ReadFileBytes(path);
  SnapSectionEntry ext = FindSection(bytes, kSnapSectionExtents);
  for (uint64_t off = ext.offset; off < ext.offset + ext.size; off += 32) {
    bytes[off] = static_cast<char>(bytes[off] ^ 0x5a);
  }
  WriteFileBytes(path, bytes);
  Database corrupted = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());
  try {
    corrupted.engine().ExecuteToTable(LubmQueries()[0].sparql);
    FAIL() << "paranoid query over corrupted extents did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum);
  }
}

}  // namespace
}  // namespace lbr
