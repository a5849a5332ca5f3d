#ifndef LBR_BITMAT_TRIPLE_INDEX_H_
#define LBR_BITMAT_TRIPLE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bitmat/bitmat.h"
#include "bitmat/snapshot_format.h"
#include "rdf/graph.h"
#include "util/compressed_row.h"
#include "util/mapped_file.h"
#include "util/query_control.h"

namespace lbr {

/// The on-disk / in-memory index over an RDF graph: the 3-D bitcube of
/// Section 4 sliced into 2-D BitMats.
///
/// The paper stores 2|Vp| + |Vs| + |Vo| BitMats: an S-O and an O-S BitMat
/// per predicate, a P-O BitMat per subject, and a P-S BitMat per object.
/// The P-S BitMat of object `o` has, at row `p`, exactly the same bit-row as
/// row `o` of the O-S BitMat of `p` (and symmetrically for P-O/S-O), so this
/// implementation materializes the per-predicate families and *derives* the
/// per-subject/per-object families on demand — identical query-visible
/// content with 2x less storage. Index-size reporting can still quote the
/// as-if-materialized sizes of all four families for parity with the paper.
///
/// Per-predicate matrices are stored sparsely: only non-empty rows are kept,
/// sorted by row id.
///
/// A *slice* is one (predicate, side) matrix: the S-O or the O-S BitMat of
/// one predicate. It is the unit the index materializes, pins, spills,
/// prefetches and meters, and every reader asks only for the side it reads.
///
/// One representation (DESIGN.md §11): the index always reads a mapped v3
/// snapshot image — a snapshot file opened by Database::OpenSnapshot, or the
/// image Build writes into a memfd file. Slices materialize lazily on first
/// touch as vectors of zero-copy CompressedRow views into the mapped
/// extents (checksum-verified each time), so a query pays only for the
/// sides it touches. Under a memory budget, cold slices *spill*: their heap
/// structures are freed and their extent pages are madvise(DONTNEED)'d back
/// to the file; the next touch re-materializes (and re-verifies) them.
///
/// Concurrency: each slice has its own mutex; `Slice()` returns a
/// shared_ptr pin that keeps a slice alive across spills, so concurrent
/// readers and the spiller never race. It is the only way to read a slice:
/// every reader (TP loader, selectivity, size report, pairwise baseline)
/// holds a pin for as long as it reads the slice's rows.
class TripleIndex {
 public:
  /// Which of a predicate's two matrices: S-O (rows keyed by subject,
  /// columns are objects) or O-S (rows keyed by object, columns are
  /// subjects).
  enum class Side : uint8_t { kSO = 0, kOS = 1 };

  /// One (predicate, side) matrix. Public so Slice() pins can hand the row
  /// vector to the TP loader directly.
  struct SliceRows {
    // Sorted by first (row id); only non-empty rows present. Views into
    // the mapped extent, or owned rows in paranoid mode (DESIGN.md §12).
    std::vector<std::pair<uint32_t, CompressedRow>> rows;
    /// Heap bytes of the slice's own structures (vector + owned payload;
    /// view payload in the map is not counted) — the unit the memory
    /// budget meters.
    uint64_t heap_bytes = 0;
  };
  using SlicePin = std::shared_ptr<const SliceRows>;

  /// Builds the index from a graph's encoded triples: writes the v3
  /// snapshot image of the graph (its dict section bytes unchanged) into a
  /// memfd file and opens it with the same reader as a snapshot on disk.
  /// Throws SnapshotError(kIo) when the image cannot be written or mapped.
  static TripleIndex Build(const Graph& graph);

  /// The snapshot reader: verifies the image's header and meta section
  /// and decodes the meta; row payload stays in the file until touched,
  /// and the dict section until ImageDictionary. `paranoid` (or the
  /// LBR_SNAPSHOT_PARANOID environment variable) arms paranoid reads.
  /// Throws SnapshotError with a structured code on any malformed input.
  static TripleIndex Open(std::shared_ptr<MappedFile> file, bool paranoid);

  /// The mapped image the index reads; Database::SaveSnapshot copies it.
  const MappedFile& image() const { return *backing_->file; }

  /// The dictionary of the image, for built and opened databases alike:
  /// verifies the dict section's checksum, views it in place (an owned
  /// pread copy under paranoid reads, so a storage fault never surfaces as
  /// a SIGBUS at decode time) and checks its dimensions against the meta
  /// section. Throws SnapshotError on a mismatch.
  Dictionary ImageDictionary() const;
  /// True when the mapped dict section still matches its checksum.
  bool DictChecksumMatches() const {
    const SnapSectionEntry& d = backing_->dict;
    return Checksum64(image().data() + d.offset, d.size) == d.checksum;
  }

  uint32_t num_subjects() const { return num_subjects_; }
  uint32_t num_predicates() const { return num_predicates_; }
  uint32_t num_objects() const { return num_objects_; }
  /// |Vso|: the S-O join-compatible ID range (Appendix D).
  uint32_t num_common() const { return num_common_; }
  uint64_t num_triples() const { return num_triples_; }

  /// Number of triples with predicate `p` (selectivity metadata).
  uint64_t PredicateCardinality(uint32_t p) const {
    return pred_counts_[p];
  }

  /// Pins side `side` of predicate `p`, materializing it first if it is
  /// not resident (the other side stays in the file). The pin keeps the
  /// slice's rows alive even if the slice is spilled concurrently — the
  /// loader's access protocol under a memory budget. Returns nullptr for
  /// out-of-range predicates.
  SlicePin Slice(uint32_t p, Side side) const;

  /// Finds row `id` in a pinned slice's sorted row vector (binary search);
  /// returns a shared empty row when absent.
  static const CompressedRow& FindRowIn(
      const std::vector<std::pair<uint32_t, CompressedRow>>& rows,
      uint32_t id);

  // --- Residency, budget and integrity (DESIGN.md §11, §12) -----------------

  /// Installs the resident-memory budget for materialized slices.
  /// `meter` (optional, not owned, must outlive the index) supplies the
  /// accounting device — a QueryControl charged/released per slice, shared
  /// with the TpCache so one global budget covers both tiers; null makes
  /// the index meter privately. The meter's own budget stays 0 (pure
  /// accounting): going over triggers *spill*, never an abort.
  void SetMemoryBudget(uint64_t bytes, QueryControl* meter = nullptr);

  /// Extra reclaim hook run before the index spills its own slices (wired
  /// by Database to TpCache eviction, so cold cache entries go first).
  /// Returns bytes released.
  void SetSpillHook(std::function<uint64_t()> hook);

  /// Spills cold unpinned slices (LRU by touch sequence) until the meter
  /// fits the budget, or until only pinned slices remain. Returns bytes
  /// released. Safe from any thread; also triggered automatically by
  /// materializations that overshoot.
  uint64_t SpillToFit() const;

  /// madvise(WILLNEED) on the directory + extent of side `side` of
  /// predicate `p` — the planner-driven readahead hint for TPs about to be
  /// loaded. No-op for an already-resident slice.
  void Prefetch(uint32_t p, Side side) const;

  /// Index observability. Materializations, spills and prefetches count
  /// slices, that is (predicate, side) pairs.
  uint64_t snapshot_materializations() const {
    return backing_->materializations.load(std::memory_order_relaxed);
  }
  uint64_t snapshot_spills() const {
    return backing_->spills.load(std::memory_order_relaxed);
  }
  uint64_t snapshot_prefetches() const {
    return backing_->prefetches.load(std::memory_order_relaxed);
  }
  /// Current heap bytes held by materialized slices.
  uint64_t snapshot_resident_bytes() const {
    return backing_->resident_bytes.load(std::memory_order_relaxed);
  }
  uint64_t snapshot_budget_bytes() const { return backing_->budget_bytes; }
  /// Predicates quarantined by a checksum/corruption failure on either
  /// side (degraded mode, DESIGN.md §12): both sides then fail fast.
  uint64_t snapshot_quarantined() const {
    return backing_->quarantines.load(std::memory_order_relaxed);
  }
  /// The quarantined predicate IDs, ascending.
  std::vector<uint32_t> QuarantinedSlices() const;

  /// Integrity sweep for `.verify`, Database::VerifySnapshot and
  /// Database::SaveSnapshot: re-checks both sides' directory and extent
  /// checksums of every predicate against the mapped bytes without
  /// materializing anything. Appends predicate IDs with a failing side to
  /// `corrupt` and currently-quarantined IDs to `quarantined` (either may
  /// be null). Returns true when both lists are empty.
  bool VerifySlices(std::vector<uint32_t>* corrupt,
                    std::vector<uint32_t>* quarantined) const;

  /// Index-size accounting for the Section 6 "Index Sizes" experiment.
  struct SizeReport {
    uint64_t so_bytes = 0;      ///< S-O family payload (also the derived P-O).
    uint64_t os_bytes = 0;      ///< O-S family payload (also the derived P-S).
    uint64_t hybrid_bytes = 0;  ///< Total, all four families, hybrid encoding.
    uint64_t rle_only_bytes = 0;  ///< Total if rows used pure RLE (ablation).
    uint64_t num_rows = 0;      ///< Non-empty compressed rows stored.
  };
  SizeReport ComputeSizeReport() const;

 private:
  TripleIndex() = default;

  /// Slot of side `side` of predicate `p` in slices_ and the per-slice
  /// Backing arrays.
  static size_t SlotOf(uint32_t p, Side side) {
    return 2 * static_cast<size_t>(p) + static_cast<size_t>(side);
  }

  /// Per-(predicate, side) location of the row directory and the
  /// page-aligned payload extent inside the mapped image.
  struct SliceLoc {
    uint64_t dir_off = 0;       ///< Byte offset of the directory (absolute).
    uint32_t dir_rows = 0;      ///< Directory entries.
    uint64_t extent_off = 0;    ///< Byte offset of the extent (absolute).
    uint64_t extent_words = 0;  ///< Extent length in 4-byte words.
    uint64_t dir_checksum = 0;
    uint64_t extent_checksum = 0;
  };

  struct Backing {
    std::shared_ptr<MappedFile> file;
    SnapSectionEntry dict{};  ///< The dict section's span and checksum.
    std::vector<SliceLoc> loc;  ///< Indexed by SlotOf(p, side).
    /// Per-slice materialization locks; also guard slices_[slot] loads
    /// (C++17 has no atomic shared_ptr).
    std::unique_ptr<std::mutex[]> mu;
    /// LRU clock: last-touch sequence per slice.
    std::unique_ptr<std::atomic<uint64_t>[]> last_touch;
    /// Lock-free residency flags mirroring slices_[slot] != nullptr
    /// (updated under mu[slot]); the spiller's victim scan reads these
    /// instead of the shared_ptrs themselves.
    std::unique_ptr<std::atomic<uint8_t>[]> resident;
    std::atomic<uint64_t> touch_seq{0};
    // Budget + accounting (SetMemoryBudget).
    uint64_t budget_bytes = 0;
    QueryControl* meter = nullptr;       ///< External or &own_meter.
    QueryControl own_meter;
    std::function<uint64_t()> spill_hook;
    std::mutex spill_mu;                 ///< Serializes SpillToFit passes.
    // Telemetry.
    std::atomic<uint64_t> materializations{0};
    std::atomic<uint64_t> spills{0};
    std::atomic<uint64_t> prefetches{0};
    std::atomic<uint64_t> resident_bytes{0};
    /// Degraded mode (DESIGN.md §12): per-predicate quarantine flags, set
    /// when a materialization of either side hits a checksum/corruption
    /// failure. Both sides of a quarantined predicate fail fast with a
    /// structured error on every subsequent touch (that query fails; other
    /// predicates keep serving).
    std::unique_ptr<std::atomic<uint8_t>[]> quarantined;
    std::atomic<uint64_t> quarantines{0};
    /// LBR_SNAPSHOT_PARANOID: decode owned rows from pread copies instead
    /// of borrowing mapped words (for unreliable storage).
    bool paranoid = false;
  };

  /// Returns the resident slice, or materializes it (Slice()'s body).
  std::shared_ptr<SliceRows> MaterializeSlice(uint32_t p, Side side) const;
  /// Decodes one slice's rows from the mapped directory + extent into
  /// `*slice`, verifying both checksums. Throws SnapshotError on any
  /// mismatch. In paranoid mode both regions are pread into local buffers
  /// and the rows own copies of their payload, so nothing a query keeps
  /// points into a buffer the slice frees.
  void DecodeSliceRows(uint32_t p, Side side, SliceRows* slice) const;
  /// True when both checksums of the slice at `loc` match the mapped bytes.
  bool SliceChecksumsMatch(const SliceLoc& loc) const;

  uint32_t num_subjects_ = 0;
  uint32_t num_predicates_ = 0;
  uint32_t num_objects_ = 0;
  uint32_t num_common_ = 0;
  uint64_t num_triples_ = 0;
  std::vector<uint64_t> pred_counts_;
  /// Slice storage, indexed by SlotOf(p, side): entries start null and are
  /// published/spilled under backing_->mu[slot].
  mutable std::vector<std::shared_ptr<SliceRows>> slices_;
  /// Never null once constructed (heap-held so the index stays movable).
  mutable std::unique_ptr<Backing> backing_;
};

}  // namespace lbr

#endif  // LBR_BITMAT_TRIPLE_INDEX_H_
