#ifndef LBR_BITMAT_BITMAT_H_
#define LBR_BITMAT_BITMAT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/bitvector.h"
#include "util/compressed_row.h"
#include "util/exec_context.h"

namespace lbr {

/// Which BitMat dimension to retain in a fold / mask in an unfold.
enum class Dim : uint8_t {
  kRow = 0,
  kCol = 1,
};

/// A 2-D compressed bit matrix — one slice of the conceptual 3-D bitcube
/// (Section 4). Rows are hybrid-compressed (CompressedRow); the matrix keeps
/// a cached triple count and a condensed non-empty-row bit array so that
/// selectivity checks never scan payload (Appendix D's "meta-information").
///
/// The two primitives the whole engine is built on:
///  - fold(BM, dim)  == project the distinct values of that dimension
///                      (bitwise OR over the other dimension);
///  - unfold(BM, mask, dim) == clear every bit whose `dim` coordinate is 0
///                      in the mask (the semi-join step).
///
/// Sparse row layout (DESIGN.md §4): only non-empty rows are stored — their
/// ascending ids and their handles side by side, the id-plus-row layout of
/// TripleIndex::SliceRows. Row `r` is found through the non-empty-row bits
/// plus one rank word per 64 rows (`rank[r/64] + popcount(bits of word
/// below r)`), so creating, copying and destroying a matrix costs
/// O(non-empty rows + rows/64), never O(rows). Setting a row past the last
/// non-empty one is an O(1) append; an out-of-order insert or a
/// mid-matrix erase shifts the arrays and rebuilds the rank words, so bulk
/// loaders fill rows in ascending order.
///
/// Ownership model (DESIGN.md §4): rows are shared **immutable** handles
/// (`RowHandle`). Copying a BitMat is O(non-empty rows) refcount bumps, and
/// mutating ops (`SetRow`, `Unfold`) replace only the handles of rows they
/// actually change — a copy-on-write discipline that makes TpCache hits
/// near-free. A per-matrix column-fold memo, dropped by every op that
/// changes bit content, lets `FoldInto(kCol)` return the memoized fold
/// without row iteration while the matrix is unchanged.
///
/// Thread confinement: a BitMat object belongs to one thread at a time,
/// and that includes its const folds — `FoldInto` writes the mutable
/// column-fold memo, so two threads must not fold one instance
/// concurrently. Handing a matrix to another thread needs external
/// synchronization. Sharing row payload across thread-confined BitMat
/// copies is safe (handles are immutable and refcounts are atomic), which
/// is how every engine folds its own CoW snapshots of a shared TpCache
/// entry (DESIGN.md §5).
class BitMat {
 public:
  /// A shared immutable row. Null means an empty row (no set bits); a
  /// non-null handle is never mutated through — changed rows get a fresh
  /// handle instead.
  using RowHandle = std::shared_ptr<const CompressedRow>;

  BitMat() = default;
  /// Creates an empty matrix with the given dimensions.
  BitMat(uint32_t num_rows, uint32_t num_cols);

  /// The one shared single-bit row {0} — every row of a single-column
  /// matrix (`(?x :p :c)` TPs). Immutable and static; it has no control
  /// block, so copying it touches no refcount.
  static const RowHandle& UnitRow();

  uint32_t num_rows() const { return num_rows_; }
  uint32_t num_cols() const { return num_cols_; }

  /// Total set bits (== triples represented by this BitMat).
  uint64_t Count() const { return count_; }
  bool IsEmpty() const { return count_ == 0; }

  /// Replaces row `r`. `positions` must be sorted, duplicate-free, < cols.
  void SetRow(uint32_t r, const std::vector<uint32_t>& positions);
  /// Replaces row `r` with an already-compressed row.
  void SetRow(uint32_t r, CompressedRow row);
  /// Replaces row `r` with a shared handle (no payload copy). Empty rows
  /// are normalized to the null handle. Named separately from SetRow so a
  /// braced position list never overload-resolves against shared_ptr.
  void SetRowShared(uint32_t r, RowHandle row);

  /// Row `r` (the empty row when unset or out of range).
  const CompressedRow& Row(uint32_t r) const {
    static const CompressedRow kEmptyRow;
    const RowHandle* h = Find(r);
    return h != nullptr ? **h : kEmptyRow;
  }
  /// The shared handle of row `r` (null when empty). Lets callers alias the
  /// row into another BitMat without copying payload.
  const RowHandle& SharedRow(uint32_t r) const {
    static const RowHandle kNullRow;
    const RowHandle* h = Find(r);
    return h != nullptr ? *h : kNullRow;
  }

  /// Bit test at (r, c). Out-of-range coordinates (either dimension) are
  /// false, not UB.
  bool Test(uint32_t r, uint32_t c) const {
    if (c >= num_cols_) return false;
    const RowHandle* h = Find(r);
    return h != nullptr && (*h)->Test(c);
  }

  /// Calls fn(r, handle) for every non-empty row, in ascending row order.
  /// Handles are never null.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (size_t i = 0; i < ids_.size(); ++i) fn(ids_[i], handles_[i]);
  }

  /// fold(BM, dim) -> bit array over that dimension (Section 4).
  Bitvector Fold(Dim retain) const;

  /// Fold into `*out` (resized + cleared), reusing its word capacity. Runs
  /// decode into whole words.
  ///
  /// Column folds are memoized on the second fold with no mutation in
  /// between: the first fold after a mutation only records that it
  /// happened (fold-once-then-mutate patterns like the semi-join slave pay
  /// no memo cost), the second stores the result, and later calls copy the
  /// memo's words without touching any row (DESIGN.md §4). `ctx`
  /// (optional) only receives hit/miss telemetry. Row folds are the
  /// incrementally maintained NonEmptyRows() metadata and are always
  /// O(words); they bypass the cache counters.
  void FoldInto(Dim retain, Bitvector* out, ExecContext* ctx = nullptr) const;

  /// True iff the next FoldInto(kCol) would be served from the memo.
  bool ColFoldMemoized() const { return col_fold_.bits != nullptr; }

  /// Masks a non-null row handle: returns `row` itself when the mask drops
  /// no bit (callers keep sharing), null when nothing survives, or a fresh
  /// handle with the surviving bits. The single implementation of the CoW
  /// row-masking step, shared by Unfold and the TP cache's masked copy-out
  /// (SetRowMaskedShared). `scratch` keeps its capacity across calls.
  static RowHandle MaskedRow(const RowHandle& row, const Bitvector& mask,
                             std::vector<uint32_t>* scratch);

  /// unfold(BM, mask, dim): for every 0 in `mask`, clears all bits at that
  /// coordinate of `retain`. Updates counts and the non-empty-row cache.
  /// Copy-on-write: rows that lose no bit keep their shared handle (copies
  /// of this matrix stay aliased to them); only changed rows are re-encoded
  /// into fresh handles, through pooled `ctx` scratch when given.
  void Unfold(const Bitvector& mask, Dim retain, ExecContext* ctx = nullptr);

  /// Condensed representation of the non-empty rows (Appendix D metadata);
  /// equal to Fold(Dim::kRow) but maintained incrementally.
  const Bitvector& NonEmptyRows() const { return non_empty_rows_; }

  /// Number of non-empty rows, O(1): what one AppendColumnPositions scan
  /// probes.
  size_t NonEmptyRowCount() const { return ids_.size(); }

  /// Returns the transpose (rows<->cols). Used when the multi-way join needs
  /// column-keyed access to a TP whose BitMat is row-oriented. Sorts the
  /// set bits once by (column, row) and encodes every column into the
  /// Builder's arena, so the cost follows Count(), not num_cols(), and the
  /// allocations are O(1), not one per column.
  BitMat Transposed() const;

  /// Appends the (ascending) row indexes whose bit in column `c` is set —
  /// one transposed row, extracted without materializing the transpose.
  /// Cost is O(NonEmptyRowCount() × row test), so callers that end up
  /// visiting many columns should fall forward to Transposed() (the
  /// multiway join's lazy per-column transpose cache does exactly that).
  void AppendColumnPositions(uint32_t c, std::vector<uint32_t>* out) const;

  /// A copy whose rows are freshly allocated instead of shared — the
  /// pre-CoW copying behavior. Kept for the ablation bench that quantifies
  /// what the CoW snapshot saves, and for callers that want to sever all
  /// row aliasing. A view row (a snapshot slice's, a Builder arena's)
  /// gets a fresh row object that still borrows the same payload and holds
  /// the source handle, so the borrowed storage outlives the copy.
  /// Severing aliasing does not change thread confinement: the copy is one
  /// more BitMat object, folded by one thread at a time like any other.
  BitMat DeepCopy() const;

  /// Calls fn(row, col) for every set bit in row-major order.
  template <typename Fn>
  void ForEachBit(Fn&& fn) const {
    for (size_t i = 0; i < ids_.size(); ++i) {
      const uint32_t r = ids_[i];
      handles_[i]->ForEachSetBit([&fn, r](uint32_t c) { fn(r, c); });
    }
  }

  /// Payload bytes across all rows (index-size accounting). Shared rows are
  /// counted once per referencing matrix (as-if-owned sizes).
  size_t PayloadBytes() const;

  /// Approximate heap bytes this matrix holds: its id, handle and rank
  /// arrays, the non-empty-row words, and each row's owned payload (the
  /// static UnitRow() and views, of a mapped snapshot or of an arena, own
  /// none). Shared rows are counted once per referencing matrix.
  size_t HeapBytes() const;

  /// Payload bytes the Builder encoded into this matrix's arena (0 for a
  /// matrix built row by row). Not part of HeapBytes(): the arena is
  /// shared by every copy, and each copy reports the same figure.
  size_t ArenaBytes() const { return arena_bytes_; }

  bool operator==(const BitMat& other) const;

  /// Bulk construction in one shared arena (below).
  class Builder;

  /// Debug-build consistency check, asserted after every mutating op:
  /// ids ascending and in range, one non-null non-empty handle per id, the
  /// ids are exactly the set bits of NonEmptyRows(), every rank word
  /// counts the ids below it, and Count() is the sum of the row counts.
  /// Compiled out under NDEBUG.
#ifdef NDEBUG
  void CheckInvariants() const {}
#else
  void CheckInvariants() const;
#endif

 private:
  /// The handle slot of row `r`, or null when the row is empty or out of
  /// range. A set bit in `non_empty_rows_` implies r <= ids_.back(), so
  /// its rank word always exists.
  const RowHandle* Find(uint32_t r) const {
    if (r >= num_rows_) return nullptr;
    const uint64_t word = non_empty_rows_.words()[r >> 6];
    const uint64_t bit = uint64_t{1} << (r & 63);
    if ((word & bit) == 0) return nullptr;
    return &handles_[rank_[r >> 6] + __builtin_popcountll(word & (bit - 1))];
  }

  /// Stores `row` as row `r` past the last non-empty row: O(1) amortized
  /// (rank words are filled up to r's word). The caller adds the row's
  /// bits to count_ (a Builder passes a null handle and fills it in
  /// Finish).
  void Append(uint32_t r, RowHandle row);
  /// Out-of-order replace, insert or erase of row `r <= ids_.back()`:
  /// O(non-empty rows + rows/64).
  void Splice(uint32_t r, RowHandle row);
  /// Recomputes `rank_` from `non_empty_rows_` after ids were inserted or
  /// removed.
  void RebuildRank();

  /// Records a bit-content change (`SetRow` always; `Unfold` when at
  /// least one bit was cleared): drops the fold memo, so the next fold
  /// starts the second-touch count afresh.
  void Touch() { col_fold_ = FoldMemo(); }

  uint32_t num_rows_ = 0;
  uint32_t num_cols_ = 0;
  uint64_t count_ = 0;
  size_t arena_bytes_ = 0;
  /// Ascending ids of the non-empty rows; handles_[i] is row ids_[i] and
  /// is never null.
  std::vector<uint32_t> ids_;
  std::vector<RowHandle> handles_;
  /// rank_[w] = number of non-empty rows below row 64*w. Sized up to the
  /// word of the last non-empty row, the only words Find can reach.
  std::vector<uint32_t> rank_;
  Bitvector non_empty_rows_;

  /// Memoized column fold since the last mutation (second-touch policy):
  /// the first fold only sets `seen`, the second stores `bits`, and later
  /// folds word-copy `bits`. Reset by every mutation (Touch). Copies of
  /// the matrix inherit it; the stored bits are immutable and shared.
  struct FoldMemo {
    bool seen = false;
    std::shared_ptr<const Bitvector> bits;
  };
  mutable FoldMemo col_fold_;
};

/// Bulk construction in one shared arena (DESIGN.md §4): rows are added
/// in ascending order, the row objects live in one arena vector, and the
/// payload of rows the Builder encodes (positions, or an owned row's
/// copied words) lives in the arena's payload blocks, which never move.
/// Every handle of the result aliases the arena and shares its
/// ownership, so the matrix outlives whatever it was built from, copies
/// share the arena, and a later mutation (Unfold, SetRow) re-encodes only
/// the rows it changes into owned storage. A view row added as is (a
/// mapped snapshot row) stays a view of the words it borrows. The cost is
/// O(1) allocations per matrix plus one per payload block, not one per
/// row. Used by the TP loader and Transposed().
class BitMat::Builder {
 public:
  Builder(uint32_t num_rows, uint32_t num_cols);

  /// Capacity hints: `rows` row objects, `payload_words` encoded words
  /// (the first payload block's size).
  void Reserve(size_t rows, size_t payload_words);

  /// Appends `row` as row `r`. A view keeps borrowing its words (the
  /// caller guarantees they outlive the matrix, as snapshot extents
  /// do); an owned row's payload is copied into the arena. Empty rows
  /// are skipped. `r` must exceed every row added before.
  void Add(uint32_t r, const CompressedRow& row);
  /// Appends row `r` with the set bits at sorted, duplicate-free
  /// `positions`, encoded as FromPositions would into the arena.
  void AddPositions(uint32_t r, const std::vector<uint32_t>& positions);
  /// Appends `row` masked by `mask` (the active-pruning column mask):
  /// the row as is (Add) when the mask drops no bit, its surviving bits
  /// (AddPositions) when it drops some, nothing when none survive.
  /// `scratch` keeps its capacity across calls.
  void AddMasked(uint32_t r, const CompressedRow& row,
                 const Bitvector& mask, std::vector<uint32_t>* scratch);
  /// Appends a shared handle as row `r` without touching the arena
  /// (UnitRow()).
  void AddShared(uint32_t r, RowHandle row);

  /// The built matrix; the Builder is spent afterwards.
  BitMat Finish();

 private:
  struct Arena {
    std::vector<CompressedRow> rows;
    std::vector<std::vector<uint32_t>> blocks;
  };
  /// A payload block with room for `words` more words (a new one when
  /// the current block is full, so earlier views never move).
  std::vector<uint32_t>* BlockWithRoom(size_t words);
  Arena& GetArena();
  /// Appends `row` (non-empty; a view of words that outlive the
  /// matrix) as row `r` in the arena.
  void Place(uint32_t r, CompressedRow row);

  BitMat bm_;
  /// Created by the first arena row: a matrix of shared rows only (the
  /// unit rows of a one-column TP) allocates none.
  std::shared_ptr<Arena> arena_;
  size_t rows_hint_ = 0;
  size_t next_block_words_ = 64;
};

}  // namespace lbr

#endif  // LBR_BITMAT_BITMAT_H_
