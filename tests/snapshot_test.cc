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

/// Flips byte `off` of the file in place, so a database that maps it sees
/// the damage without the file being replaced.
void FlipFileByte(const std::string& path, uint64_t off) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(off));
  const char c = static_cast<char>(f.get());
  f.seekp(static_cast<std::streamoff>(off));
  f.put(static_cast<char>(c ^ 0x5a));
  ASSERT_TRUE(f.good()) << path;
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

/// Saves `built_db` as a snapshot, reopens it, and requires every query in
/// `queries` to return the bit-identical result multiset.
void ExpectRoundTrip(Database& built_db, const std::vector<BenchQuery>& queries,
                     const std::string& name) {
  const std::string path = TempPath(name);
  built_db.SaveSnapshot(path);
  Database snap_db = Database::OpenSnapshot(path);
  std::remove(path.c_str());
  EXPECT_EQ(snap_db.num_triples(), built_db.num_triples());
  for (const BenchQuery& q : queries) {
    SCOPED_TRACE(q.id);
    EXPECT_EQ(testing::Canonicalize(built_db.engine().ExecuteToTable(q.sparql)),
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

TEST(SnapshotTest, LazyMaterializationIsCountedOncePerPredicate) {
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_lazy.snap");
  built_db.SaveSnapshot(path);
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
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_fresh.snap");
  built_db.SaveSnapshot(path);
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
  EXPECT_EQ(db.num_triples(), built_db.num_triples());
}

TEST(SnapshotTest, BoundObjectTpMaterializesOnlyTheObjectSide) {
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_side.snap");
  built_db.SaveSnapshot(path);
  Database db = Database::OpenSnapshot(path);
  std::remove(path.c_str());
  const uint32_t member_of = MemberOf(db);
  ASSERT_EQ(db.index().snapshot_materializations(), 0u);
  ASSERT_EQ(db.index().snapshot_resident_bytes(), 0u);

  // (?x :memberOf :dept) reads one row of the O-S side and nothing else.
  // The planner's exact count already pins that side, so the load finds it
  // resident and readahead has nothing left to prefetch.
  const std::string q = "SELECT ?x WHERE { ?x <" +
                        std::string(lubm::kMemberOf) + "> <" +
                        LubmDepartmentIri(0, 0) + "> . }";
  QueryStats stats;
  ResultTable got = db.engine().ExecuteToTable(q, &stats);
  EXPECT_FALSE(got.rows.empty());
  EXPECT_EQ(testing::Canonicalize(built_db.engine().ExecuteToTable(q)),
            testing::Canonicalize(got));
  EXPECT_EQ(db.index().snapshot_materializations(), 1u);
  EXPECT_EQ(stats.snapshot_prefetches, 0u);
  const uint64_t resident = db.index().snapshot_resident_bytes();

  // That one slice is the O-S side: pinning it finds it resident, and the
  // resident bytes are exactly its own.
  TripleIndex::SlicePin os =
      db.index().Slice(member_of, TripleIndex::Side::kOS);
  EXPECT_EQ(db.index().snapshot_materializations(), 1u);
  EXPECT_EQ(resident, os->heap_bytes);

  // The S-O side was still on disk. (?x :memberOf ?d) is estimated from
  // the predicate count alone, so readahead prefetches the S-O side before
  // the load materializes it: a second, separate materialization that adds
  // only its own bytes.
  const std::string all = "SELECT ?x ?d WHERE { ?x <" +
                          std::string(lubm::kMemberOf) + "> ?d . }";
  QueryStats all_stats;
  ResultTable all_rows = db.engine().ExecuteToTable(all, &all_stats);
  EXPECT_EQ(testing::Canonicalize(built_db.engine().ExecuteToTable(all)),
            testing::Canonicalize(all_rows));
  EXPECT_EQ(all_stats.snapshot_prefetches, 1u);
  EXPECT_EQ(all_stats.snapshot_materializations, 1u);
  TripleIndex::SlicePin so =
      db.index().Slice(member_of, TripleIndex::Side::kSO);
  EXPECT_EQ(db.index().snapshot_materializations(), 2u);
  EXPECT_EQ(db.index().snapshot_resident_bytes(), resident + so->heap_bytes);
}

TEST(SnapshotTest, VerifyAndParanoidReadsCoverBothSides) {
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_sides.snap");
  built_db.SaveSnapshot(path);
  const std::string clean = ReadFileBytes(path);
  const uint32_t np = built_db.index().num_predicates();
  const uint32_t p = MemberOf(built_db);
  const SnapSectionEntry ext = FindSection(clean, kSnapSectionExtents);
  SnapshotOptions paranoid;
  paranoid.paranoid = true;
  SnapshotOptions verify;
  verify.verify_extents = true;

  {
    // Clean file: paranoid reads serve each side as rows that own their
    // payload, so nothing a query copies points into a freed read buffer.
    Database db = Database::OpenSnapshot(path, {}, paranoid);
    EXPECT_TRUE(db.VerifySnapshot().ok());
    for (TripleIndex::Side side :
         {TripleIndex::Side::kSO, TripleIndex::Side::kOS}) {
      TripleIndex::SlicePin pin = db.index().Slice(p, side);
      ASSERT_FALSE(pin->rows.empty());
      for (const auto& [id, row] : pin->rows) {
        EXPECT_FALSE(row.is_view()) << "row " << id;
      }
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
  // Saving copies the image, whichever way it was made: build -> save ->
  // open -> save writes the same bytes twice, and both files serve.
  Database built_db = SmallLubmDb();
  const std::string path1 = TempPath("snap_gen1.snap");
  const std::string path2 = TempPath("snap_gen2.snap");
  built_db.SaveSnapshot(path1);
  Database gen1 = Database::OpenSnapshot(path1);
  gen1.SaveSnapshot(path2);
  Database gen2 = Database::OpenSnapshot(path2);
  const std::string gen1_bytes = ReadFileBytes(path1);
  EXPECT_GT(gen1_bytes.size(), kSnapHeaderBytes);
  EXPECT_TRUE(gen1_bytes == ReadFileBytes(path2))
      << "gen-1 and gen-2 snapshots differ";
  std::remove(path1.c_str());
  std::remove(path2.c_str());
  for (const BenchQuery& q : LubmQueries()) {
    SCOPED_TRACE(q.id);
    EXPECT_EQ(testing::Canonicalize(built_db.engine().ExecuteToTable(q.sparql)),
              testing::Canonicalize(gen2.engine().ExecuteToTable(q.sparql)));
  }
}

TEST(SnapshotTest, SaveRefusesDamagedImage) {
  // Saving copies the image byte for byte, so it re-checks the dict section
  // and every slice first: a flipped extent or dict byte must fail the
  // save, not be laundered into a fresh file whose damage only shows at
  // query time. Slices verify lazily, so the extent byte is flipped before
  // the open; the open verifies the dict section, so its byte is flipped
  // under the mapped database.
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_damaged.snap");
  const std::string resaved = TempPath("snap_damaged_resave.snap");
  built_db.SaveSnapshot(path);
  const std::string clean = ReadFileBytes(path);
  const uint32_t np = built_db.index().num_predicates();
  const SnapSectionEntry ext = FindSection(clean, kSnapSectionExtents);
  const SnapSectionEntry dict = FindSection(clean, kSnapSectionDict);
  const SnapSliceLocEntry loc =
      FindSliceLoc(clean, np, MemberOf(built_db), TripleIndex::Side::kSO);
  ASSERT_GT(loc.extent_words, 0u);

  for (const bool in_dict : {false, true}) {
    SCOPED_TRACE(in_dict ? "dict byte" : "extent byte");
    WriteFileBytes(path, clean);
    const uint64_t off =
        in_dict ? dict.offset + dict.size / 2
                : ext.offset + loc.extent_off + loc.extent_words * 2;
    if (!in_dict) FlipFileByte(path, off);
    Database damaged = Database::OpenSnapshot(path);
    if (in_dict) FlipFileByte(path, off);

    const Database::SnapshotVerifyReport report = damaged.VerifySnapshot();
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.dict_corrupt, in_dict);
    EXPECT_EQ(report.corrupt.empty(), in_dict);
    try {
      damaged.SaveSnapshot(resaved);
      FAIL() << "saving a damaged image did not throw";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum) << e.what();
    }
    EXPECT_NE(::access(resaved.c_str(), F_OK), 0);
    EXPECT_NE(::access((resaved + ".tmp." +
                        std::to_string(static_cast<long>(::getpid())))
                           .c_str(),
                       F_OK),
              0);
  }
  std::remove(path.c_str());
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

  /// Rewrites the file with the value at `off` inside section `kind`
  /// replaced by `value`, with that section and the header re-sealed.
  template <typename V>
  void RewriteSealed(uint32_t kind, uint64_t off, V value) {
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

TEST_F(SnapshotRejectTest, OlderVersionsAreRejected) {
  // Version 1 checksummed with FNV-1a and version 2 carried a statistics
  // section; this build reads only version 3.
  for (const uint32_t version : {1u, 2u}) {
    SCOPED_TRACE(version);
    std::string mutated = bytes_;
    std::memcpy(&mutated[offsetof(SnapHeader, version)], &version,
                sizeof(version));
    WriteFileBytes(path_, mutated);
    EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kBadVersion);
  }
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

// The rewritten meta sections below checksum clean; they only disagree
// with the dictionary. Open must reject the file rather than hand the
// engine a dictionary that does not match the index.

TEST_F(SnapshotRejectTest, MetaPredicateCountDisagreesWithDict) {
  // Meta's |Vp| (the second uint32) sizes the per-predicate counts the
  // planner estimates from. A |Vp| one short of the dictionary's predicate
  // count decodes cleanly and would leave the last predicate uncounted.
  SnapSectionEntry meta = FindSection(bytes_, kSnapSectionMeta);
  uint32_t np = 0;
  std::memcpy(&np, &bytes_[meta.offset + 4], sizeof(np));
  ASSERT_GT(np, 1u);
  RewriteSealed(kSnapSectionMeta, 4, np - 1);
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

TEST_F(SnapshotRejectTest, MetaBitvectorLengthOverrun) {
  // After |Vs|, |Vp|, |Vo|, |Vso| (uint32s), the triple count and |Vp|
  // per-predicate counts (uint64s) come the non-empty-row bitvectors, each
  // a uint64 word count and its words. A first word count longer than the
  // whole section must fail as corrupt before anything skips past the end.
  SnapSectionEntry meta = FindSection(bytes_, kSnapSectionMeta);
  uint32_t np = 0;
  std::memcpy(&np, &bytes_[meta.offset + 4], sizeof(np));
  const uint64_t first_bitvector = 16 + 8 + 8 * uint64_t{np};
  RewriteSealed(kSnapSectionMeta, first_bitvector, meta.size / 8 + 1);
  try {
    Database::OpenSnapshot(path_);
    ADD_FAILURE() << "open succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kCorrupt);
    EXPECT_NE(std::string(e.what()).find("bitvector length overrun"),
              std::string::npos)
        << e.what();
  }
}

// The rewritten dict sections below checksum clean too; the open pass
// that views the section must reject them as corrupt.

TEST_F(SnapshotRejectTest, DictBadMagic) {
  RewriteSealed(kSnapSectionDict, 0, uint8_t{'X'});
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kCorrupt);
}

TEST_F(SnapshotRejectTest, DictTermLengthRunsPastSectionEnd) {
  // The first term's u32 length follows its kind byte at section offset
  // 24 (after the magic and the four counts).
  RewriteSealed(kSnapSectionDict, 25, uint32_t{0xfffffff0u});
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kCorrupt);
}

TEST_F(SnapshotRejectTest, DictTermKindOutOfRange) {
  RewriteSealed(kSnapSectionDict, 24, uint8_t{3});
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kCorrupt);
}

TEST_F(SnapshotRejectTest, DictAdjacentTermsSwapped) {
  // Swapping the first two Vso terms keeps every length, count and the
  // section size; only the class order breaks. Reading it would silently
  // renumber both terms.
  SnapSectionEntry dict = FindSection(bytes_, kSnapSectionDict);
  const uint8_t* base =
      reinterpret_cast<const uint8_t*>(bytes_.data()) + dict.offset;
  ASSERT_GE(ReadPod<uint32_t>(base, 8), 2u);  // |Vso|
  const uint64_t first = 24;
  const uint64_t second = first + 5 + ReadPod<uint32_t>(base, first + 1);
  const uint64_t end = second + 5 + ReadPod<uint32_t>(base, second + 1);
  std::string mutated = bytes_;
  const std::string a = bytes_.substr(dict.offset + first, second - first);
  const std::string b = bytes_.substr(dict.offset + second, end - second);
  mutated.replace(dict.offset + first, end - first, b + a);
  Reseal(&mutated, kSnapSectionDict);
  WriteFileBytes(path_, mutated);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kCorrupt);
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
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_budget.snap");
  built_db.SaveSnapshot(path);

  // Paranoid reads spill too: a slice's rows must stay valid in the
  // queries' BitMats after the spill frees the slice.
  for (const bool paranoid : {false, true}) {
    SCOPED_TRACE(paranoid ? "paranoid" : "mapped views");
    SnapshotOptions snap;
    snap.paranoid = paranoid;
    // Measure the unbudgeted working set first so the budget is guaranteed
    // smaller than the full index on any build config.
    uint64_t full_bytes = 0;
    {
      Database db = Database::OpenSnapshot(path, {}, snap);
      for (const BenchQuery& q : LubmQueries()) {
        db.engine().ExecuteToTable(q.sparql);
      }
      full_bytes = db.index().snapshot_resident_bytes();
    }
    ASSERT_GT(full_bytes, 0u);

    snap.memory_budget_bytes = full_bytes / 4 + 1;
    Database db = Database::OpenSnapshot(path, {}, snap);

    uint64_t total_spills = 0;
    for (const BenchQuery& q : LubmQueries()) {
      SCOPED_TRACE(q.id);
      QueryStats stats;
      ResultTable got = db.engine().ExecuteToTable(q.sparql, &stats);
      EXPECT_EQ(
          testing::Canonicalize(built_db.engine().ExecuteToTable(q.sparql)),
          testing::Canonicalize(got));
      EXPECT_EQ(stats.snapshot_budget_bytes, snap.memory_budget_bytes);
      total_spills += stats.snapshot_spills;
    }
    // A budget a quarter of the working set cannot hold every predicate:
    // the sweep must have spilled and re-materialized cold slices.
    EXPECT_GT(total_spills, 0u);
  }
  std::remove(path.c_str());
}

TEST(SnapshotConcurrencyTest, ParallelQueriesUnderBudget) {
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_conc.snap");
  built_db.SaveSnapshot(path);

  std::vector<BenchQuery> queries = LubmQueries();
  std::vector<std::vector<std::string>> expected;
  for (const BenchQuery& q : queries) {
    expected.push_back(
        testing::Canonicalize(built_db.engine().ExecuteToTable(q.sparql)));
  }

  SnapshotOptions snap;
  snap.memory_budget_bytes = 256 * 1024;
  Database db = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());

  // Hammer materialize/spill from a pool of batch workers (one engine per
  // slot, sharing the mapped index, the metered TP cache, and the spill
  // hook); every query must come back identical to the built database's.
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
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_sides_conc.snap");
  built_db.SaveSnapshot(path);
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
        testing::Canonicalize(built_db.engine().ExecuteToTable(q)));
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
  auto check_rows = [&](const std::vector<BatchResult>& results) {
    ASSERT_EQ(results.size(), stream.size());
    for (size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE(stream[i]);
      ASSERT_TRUE(results[i].ok()) << results[i].error;
      EXPECT_EQ(testing::Canonicalize(results[i].table),
                expected[stream_qi[i]]);
    }
  };
  // One runner first: it touches both sides of memberOf in turn, so under
  // the 1-byte budget each side must spill to make room for the other,
  // whatever the scheduling.
  check_rows(db.ExecuteBatch(stream));
  EXPECT_GT(db.index().snapshot_spills(), 0u);
  // Then the same stream on four runners at once.
  ThreadPool pool(4);
  check_rows(db.ExecuteBatch(stream, &pool));
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

  /// The temp name Database::SaveSnapshot uses in this process.
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
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_quarantine.snap");
  built_db.SaveSnapshot(path);
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
  EXPECT_TRUE(report.corrupt.empty());
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], 0u);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(db.index().QuarantinedSlices(), std::vector<uint32_t>{0u});

  // A built database is an image too, and its sweep checks it for real.
  Database::SnapshotVerifyReport built_report = built_db.VerifySnapshot();
  EXPECT_EQ(built_report.num_predicates, built_db.index().num_predicates());
  EXPECT_TRUE(built_report.ok());
}

TEST_F(SnapshotFaultTest, TransientMaterializeFaultIsRetriedInvisibly) {
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_retry.snap");
  built_db.SaveSnapshot(path);
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
    EXPECT_EQ(testing::Canonicalize(built_db.engine().ExecuteToTable(q.sparql)),
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
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_charge.snap");
  built_db.SaveSnapshot(path);
  SnapshotOptions snap;
  snap.memory_budget_bytes = 64 * 1024 * 1024;
  Database db = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());

  Arm("query_control.charge", "once");
  EXPECT_THROW(db.engine().ExecuteToTable(LubmQueries()[0].sparql),
               FaultInjectedError);
  EXPECT_EQ(testing::Canonicalize(db.engine().ExecuteToTable(
                LubmQueries()[0].sparql)),
            testing::Canonicalize(built_db.engine().ExecuteToTable(
                LubmQueries()[0].sparql)));
}

TEST_F(SnapshotFaultTest, ParanoidModeServesIdenticalResults) {
  Database built_db = SmallLubmDb();
  const std::string path = TempPath("snap_paranoid.snap");
  built_db.SaveSnapshot(path);

  SnapshotOptions snap;
  snap.paranoid = true;
  Database db = Database::OpenSnapshot(path, {}, snap);
  for (const BenchQuery& q : LubmQueries()) {
    SCOPED_TRACE(q.id);
    EXPECT_EQ(testing::Canonicalize(built_db.engine().ExecuteToTable(q.sparql)),
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
