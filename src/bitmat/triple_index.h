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
#include "util/bitvector.h"
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
/// sorted by row id, with a condensed non-empty-row Bitvector per
/// orientation (the "meta-information" of Appendix D that lets selectivity
/// be judged without scanning payload).
///
/// A *slice* is one (predicate, side) matrix: the S-O or the O-S BitMat of
/// one predicate. It is the unit the index materializes, pins, spills,
/// prefetches and meters, and every reader asks only for the side it reads.
///
/// Two storage backends (DESIGN.md §11):
///  - Heap mode (Build): every slice is resident from the start.
///  - Mapped mode (a snapshot opened through Database::OpenSnapshot): the
///    file is mmap'd and slices materialize lazily on first touch as
///    vectors of zero-copy CompressedRow views into the mapped extents, so
///    the first query pays only for the sides it touches. Under a memory
///    budget, cold slices *spill*: their heap structures are freed and
///    their extent pages are madvise(DONTNEED)'d back to the file; the next
///    touch re-materializes (and re-verifies) them.
///
/// Concurrency: heap mode is immutable after construction (lock-free
/// reads). Mapped mode guards each slice with its own mutex; `Slice()`
/// returns a shared_ptr pin that keeps a slice alive across spills, so
/// concurrent readers and the spiller never race. The reference-returning
/// accessors (SoRow/SoRows/...) stay valid until the slice is spilled —
/// hot engine paths hold pins; admin paths (size report, snapshot writer)
/// assume no concurrent budget pressure.
class TripleIndex {
 public:
  /// Which of a predicate's two matrices: S-O (rows keyed by subject,
  /// columns are objects) or O-S (rows keyed by object, columns are
  /// subjects).
  enum class Side : uint8_t { kSO = 0, kOS = 1 };

  /// One (predicate, side) matrix. Public so Slice() pins can hand the row
  /// vector to the TP loader directly.
  struct SliceRows {
    // Sorted by first (row id); only non-empty rows present.
    std::vector<std::pair<uint32_t, CompressedRow>> rows;
    /// Paranoid mode (LBR_SNAPSHOT_PARANOID, DESIGN.md §12): a heap copy of
    /// the payload extent, pread from the file instead of borrowed from the
    /// mapping — the rows above view into this buffer, so a storage-level
    /// bit flip surfaces as a pread error or checksum mismatch, never a
    /// SIGBUS on a mapped access. Empty in normal mode.
    std::vector<uint32_t> extent_copy;
    /// Heap bytes of the slice's own structures (vector + owned payload +
    /// paranoid extent copy; view payload in the map is not counted) — the
    /// unit the snapshot memory budget meters.
    uint64_t heap_bytes = 0;
  };
  using SlicePin = std::shared_ptr<const SliceRows>;

  TripleIndex() = default;

  /// Builds the index from a graph's encoded triples.
  static TripleIndex Build(const Graph& graph);

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

  /// Pins side `side` of predicate `p`: materializes it first in mapped
  /// mode (the other side stays on disk). The pin keeps the slice's rows
  /// alive even if the slice is spilled concurrently — the loader's access
  /// protocol under a memory budget. Returns nullptr for out-of-range
  /// predicates.
  SlicePin Slice(uint32_t p, Side side) const;

  /// Finds row `id` in a pinned slice's sorted row vector (binary search);
  /// returns a shared empty row when absent.
  static const CompressedRow& FindRowIn(
      const std::vector<std::pair<uint32_t, CompressedRow>>& rows,
      uint32_t id);

  /// Row `s` of the S-O BitMat of predicate `p`: objects `o` with (s,p,o).
  /// Returns an empty row when absent. In mapped mode the reference is
  /// valid until the slice is spilled; prefer Slice() + FindRowIn under a
  /// memory budget. Touches only the S-O side (OsRow: only the O-S side).
  const CompressedRow& SoRow(uint32_t p, uint32_t s) const;
  /// Row `o` of the O-S BitMat of predicate `p`: subjects `s` with (s,p,o).
  const CompressedRow& OsRow(uint32_t p, uint32_t o) const;

  /// Non-empty-row bit arrays (condensed metadata). Always resident — in
  /// mapped mode they decode eagerly at open from the meta section, so
  /// stats collection and selectivity never touch row payload.
  const Bitvector& SubjectsOf(uint32_t p) const { return non_empty_s_[p]; }
  const Bitvector& ObjectsOf(uint32_t p) const { return non_empty_o_[p]; }

  /// All non-empty (s, row) pairs of the S-O BitMat of `p`, ascending s.
  /// Materializes that side in mapped mode; see SoRow for the lifetime
  /// caveat.
  const std::vector<std::pair<uint32_t, CompressedRow>>& SoRows(
      uint32_t p) const {
    return EnsureSlice(p, Side::kSO).rows;
  }
  const std::vector<std::pair<uint32_t, CompressedRow>>& OsRows(
      uint32_t p) const {
    return EnsureSlice(p, Side::kOS).rows;
  }

  /// Materializes the P-O BitMat of subject `s` (rows = predicates,
  /// cols = objects) — the per-subject slice family of the paper. Reads
  /// only S-O sides.
  BitMat PoBitMat(uint32_t s) const;
  /// Materializes the P-S BitMat of object `o` (rows = predicates,
  /// cols = subjects). Reads only O-S sides.
  BitMat PsBitMat(uint32_t o) const;

  // --- Snapshot backend (DESIGN.md §11) -------------------------------------

  /// True when this index reads from a mapped snapshot.
  bool mapped() const { return backing_ != nullptr; }

  /// Installs the resident-memory budget for materialized slices.
  /// `meter` (optional, not owned, must outlive the index) supplies the
  /// accounting device — a QueryControl charged/released per slice, shared
  /// with the TpCache so one global budget covers both tiers; null makes
  /// the index meter privately. The meter's own budget stays 0 (pure
  /// accounting): going over triggers *spill*, never an abort. No-op in
  /// heap mode.
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
  /// loaded. No-op in heap mode or for an already-resident slice.
  void Prefetch(uint32_t p, Side side) const;

  /// Snapshot-tier observability (all zero in heap mode). Materializations,
  /// spills and prefetches count slices, that is (predicate, side) pairs.
  uint64_t snapshot_materializations() const {
    return backing_ ? backing_->materializations.load(
                          std::memory_order_relaxed)
                    : 0;
  }
  uint64_t snapshot_spills() const {
    return backing_ ? backing_->spills.load(std::memory_order_relaxed) : 0;
  }
  uint64_t snapshot_prefetches() const {
    return backing_ ? backing_->prefetches.load(std::memory_order_relaxed)
                    : 0;
  }
  /// Current heap bytes held by materialized slices.
  uint64_t snapshot_resident_bytes() const {
    return backing_ ? backing_->resident_bytes.load(std::memory_order_relaxed)
                    : 0;
  }
  uint64_t snapshot_budget_bytes() const {
    return backing_ ? backing_->budget_bytes : 0;
  }
  /// Predicates quarantined by a checksum/corruption failure on either
  /// side (degraded mode, DESIGN.md §12): both sides then fail fast. Zero
  /// in heap mode.
  uint64_t snapshot_quarantined() const {
    return backing_ ? backing_->quarantines.load(std::memory_order_relaxed)
                    : 0;
  }
  /// The quarantined predicate IDs, ascending (empty in heap mode).
  std::vector<uint32_t> QuarantinedSlices() const;

  /// Integrity sweep for `.verify` / Database::VerifySnapshot: re-checks
  /// both sides' directory and extent checksums of every predicate against
  /// the mapped bytes without materializing anything. Appends predicate IDs
  /// with a failing side to `corrupt` and currently-quarantined IDs to
  /// `quarantined` (either may be null). Returns true when both lists are
  /// empty. Heap mode always verifies clean.
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
  friend class SnapshotIO;

  /// Slot of side `side` of predicate `p` in slices_ and the per-slice
  /// Backing arrays.
  static size_t SlotOf(uint32_t p, Side side) {
    return 2 * static_cast<size_t>(p) + static_cast<size_t>(side);
  }

  /// Per-(predicate, side) location of the row directory and the
  /// page-aligned payload extent inside the mapped snapshot.
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
    std::vector<SliceLoc> loc;  ///< Indexed by SlotOf(p, side).
    /// Per-slice materialization locks; also guard slices_[slot] loads in
    /// mapped mode (C++17 has no atomic shared_ptr).
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
    /// LBR_SNAPSHOT_PARANOID: pread slice bytes into heap instead of
    /// borrowing mapped words (for unreliable storage).
    bool paranoid = false;
  };

  /// Materialize-on-first-touch for mapped mode; heap mode returns the
  /// resident slice directly.
  const SliceRows& EnsureSlice(uint32_t p, Side side) const;
  std::shared_ptr<SliceRows> MaterializeSlice(uint32_t p, Side side) const;
  /// Decodes one slice's rows from the mapped directory + extent into
  /// `*slice`, verifying both checksums. Throws SnapshotError on any
  /// mismatch. In paranoid mode the extent is pread into
  /// slice->extent_copy and the rows view that heap copy instead of the
  /// map.
  void DecodeSliceRows(uint32_t p, Side side, SliceRows* slice) const;
  /// True when both checksums of the slice at `loc` match the mapped bytes.
  bool SliceChecksumsMatch(const SliceLoc& loc) const;

  uint32_t num_subjects_ = 0;
  uint32_t num_predicates_ = 0;
  uint32_t num_objects_ = 0;
  uint32_t num_common_ = 0;
  uint64_t num_triples_ = 0;
  std::vector<uint64_t> pred_counts_;
  /// Always-resident condensed metadata (one Bitvector pair per predicate).
  std::vector<Bitvector> non_empty_s_;
  std::vector<Bitvector> non_empty_o_;
  /// Slice storage, indexed by SlotOf(p, side). Heap mode: every entry
  /// non-null after construction, never mutated (lock-free). Mapped mode:
  /// entries start null and are published/spilled under
  /// backing_->mu[slot].
  mutable std::vector<std::shared_ptr<SliceRows>> slices_;
  mutable std::unique_ptr<Backing> backing_;
};

}  // namespace lbr

#endif  // LBR_BITMAT_TRIPLE_INDEX_H_
