#ifndef LBR_BITMAT_BITMAT_H_
#define LBR_BITMAT_BITMAT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/bitvector.h"
#include "util/compressed_row.h"
#include "util/exec_context.h"

namespace lbr {

class ThreadPool;

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
/// Ownership model (DESIGN.md §4): rows are shared **immutable** handles
/// (`RowHandle`). Copying a BitMat is O(rows) refcount bumps, and mutating
/// ops (`SetRow`, `Unfold`) replace only the handles of rows they actually
/// change — a copy-on-write discipline that makes TpCache hits near-free.
/// Every bit-changing op bumps `version()`; a per-matrix column-fold cache
/// stamped with the version lets `FoldInto(kCol)` return the memoized fold
/// without row iteration while the matrix is unchanged.
///
/// Thread confinement: mutating ops (`SetRow`, `Unfold`) require exclusive
/// ownership of the matrix. Concurrent *reads* — including `FoldInto`,
/// which writes the mutable fold memo under const — are safe: the memo is
/// published through a per-version atomic once-flag (DESIGN.md §7), so any
/// number of threads may fold one matrix at a time. A writer must still be
/// the only thread touching the matrix, and the writer/reader handover
/// needs external synchronization. Sharing row payload across
/// thread-confined BitMat copies is safe (handles are immutable and
/// refcounts are atomic).
class BitMat {
 public:
  /// A shared immutable row. Null means an empty row (no set bits); a
  /// non-null handle is never mutated through — changed rows get a fresh
  /// handle instead.
  using RowHandle = std::shared_ptr<const CompressedRow>;

  BitMat() = default;
  /// Creates an empty matrix with the given dimensions.
  BitMat(uint32_t num_rows, uint32_t num_cols);

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

  const CompressedRow& Row(uint32_t r) const {
    static const CompressedRow kEmptyRow;
    return rows_[r] != nullptr ? *rows_[r] : kEmptyRow;
  }
  /// The shared handle of row `r` (null when empty). Lets callers alias the
  /// row into another BitMat without copying payload.
  const RowHandle& SharedRow(uint32_t r) const { return rows_[r]; }

  /// Bit test at (r, c). Out-of-range coordinates (either dimension) are
  /// false, not UB.
  bool Test(uint32_t r, uint32_t c) const {
    return r < num_rows_ && c < num_cols_ && rows_[r] != nullptr &&
           rows_[r]->Test(c);
  }

  /// Monotonically increasing mutation stamp: bumped by every op that
  /// changes bit content (`SetRow` always; `Unfold` when at least one bit
  /// was cleared). Reads never change it. Derived results memoized at
  /// version v stay valid exactly while version() == v.
  uint64_t version() const { return version_; }

  /// fold(BM, dim) -> bit array over that dimension (Section 4).
  Bitvector Fold(Dim retain) const;

  /// Fold into `*out` (resized + cleared), reusing its word capacity. Runs
  /// decode into whole words.
  ///
  /// Column folds are memoized on the second fold at an unchanged
  /// version(): the first fold after a mutation only records that it
  /// happened (fold-once-then-mutate patterns like the semi-join slave pay
  /// no memo cost), the second stores the result, and later calls copy the
  /// memo's words without touching any row. Concurrent callers are safe:
  /// the memo is published through an atomic once-flag, so racing folds
  /// either word-copy the published memo or compute into their own output
  /// (DESIGN.md §7). `ctx` (optional) only receives hit/miss/once
  /// telemetry. Row folds are the incrementally maintained
  /// NonEmptyRows() metadata and are always O(words); they bypass the
  /// cache counters.
  ///
  /// With a `pool`, a memo-miss column fold shards its row range across the
  /// pool's workers (per-worker partial folds merged with word-wide ORs);
  /// memo hits and row folds stay serial word copies. The matrix itself
  /// must still be confined to the calling thread — the workers only read
  /// the immutable row payload.
  void FoldInto(Dim retain, Bitvector* out, ExecContext* ctx = nullptr,
                ThreadPool* pool = nullptr) const;

  /// True iff the next FoldInto(kCol) would be served from the memo.
  bool ColFoldMemoized() const {
    return col_fold_.state.load(std::memory_order_acquire) ==
           FoldMemo::kPublished;
  }

  /// Computes and stores the column-fold memo immediately, bypassing the
  /// second-touch policy — for owners that know the fold will be reused
  /// (TpCache warms entries before inserting them so every snapshot of a
  /// warm cache starts memoized). No-op when already memoized.
  void MemoizeColFold(ThreadPool* pool = nullptr) const;

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
  ///
  /// With a `pool`, the per-row masking is sharded across workers in
  /// 64-row-aligned chunks (so the non-empty-row bit array's words are
  /// never shared between workers); each chunk masks through its worker's
  /// own scratch arena. The count/version bookkeeping is merged on the
  /// calling thread.
  void Unfold(const Bitvector& mask, Dim retain, ExecContext* ctx = nullptr,
              ThreadPool* pool = nullptr);

  /// Condensed representation of the non-empty rows (Appendix D metadata);
  /// equal to Fold(Dim::kRow) but maintained incrementally.
  const Bitvector& NonEmptyRows() const { return non_empty_rows_; }

  /// Returns the transpose (rows<->cols). Used when the multi-way join needs
  /// column-keyed access to a TP whose BitMat is row-oriented.
  BitMat Transposed() const;

  /// Appends the (ascending) row indexes whose bit in column `c` is set —
  /// one transposed row, extracted without materializing the transpose.
  /// Cost is O(populated rows × row test), so callers that end up visiting
  /// many columns should fall forward to Transposed() (the multiway join's
  /// lazy per-column transpose cache does exactly that).
  void AppendColumnPositions(uint32_t c, std::vector<uint32_t>* out) const;

  /// A copy whose rows are freshly allocated instead of shared — the
  /// pre-CoW copying behavior. Kept for the ablation bench that quantifies
  /// what the CoW snapshot saves, and for callers that want to sever all
  /// payload aliasing. Note that severing aliasing does NOT make a BitMat
  /// shareable across threads: even const reads (FoldInto) update the
  /// mutable fold memo, so a BitMat object must stay confined to one
  /// thread (or be externally synchronized) regardless of how it was
  /// copied. Per-thread engines each load/copy their own matrices.
  BitMat DeepCopy() const;

  /// Calls fn(row, col) for every set bit in row-major order.
  template <typename Fn>
  void ForEachBit(Fn&& fn) const {
    for (uint32_t r = 0; r < num_rows_; ++r) {
      if (rows_[r] == nullptr) continue;
      rows_[r]->ForEachSetBit([&fn, r](uint32_t c) { fn(r, c); });
    }
  }

  /// Payload bytes across all rows (index-size accounting). Shared rows are
  /// counted once per referencing matrix (as-if-owned sizes).
  size_t PayloadBytes() const;

  bool operator==(const BitMat& other) const;

 private:
  /// The raw column fold (resize + clear + OR of every non-empty row),
  /// shared by the miss path of FoldInto and by MemoizeColFold. Sharded
  /// across `pool` when given and the matrix is large enough to pay.
  void ComputeColFoldInto(Bitvector* out, ThreadPool* pool = nullptr) const;

  /// Records a bit-content change: bumps the version, drops the fold memo,
  /// and resets its once-flag to kIdle. Mutation requires exclusive
  /// ownership (no concurrent reader), so plain writes are safe here; the
  /// next readers observe the reset state through whatever barrier handed
  /// them the matrix.
  void Touch() {
    ++version_;
    col_fold_.bits.reset();
    col_fold_.state.store(FoldMemo::kIdle, std::memory_order_relaxed);
  }

  uint32_t num_rows_ = 0;
  uint32_t num_cols_ = 0;
  uint64_t count_ = 0;
  uint64_t version_ = 0;
  std::vector<RowHandle> rows_;
  Bitvector non_empty_rows_;

  /// Memoized column fold behind a per-version atomic once-flag
  /// (DESIGN.md §7). The state machine encodes the second-touch policy:
  ///
  ///   kIdle ──fold──> kMissed ──fold──> kComputing ──publish──> kPublished
  ///
  /// The kIdle→kMissed and kMissed→kComputing edges are CAS transitions,
  /// so exactly one fold per version records the miss and exactly one
  /// computes + stores the memo; concurrent losers fold into their own
  /// output without touching the memo (compute-locally, never blocking).
  /// `bits` is written only by the kComputing winner and read only after
  /// an acquire-load observes kPublished — release/acquire on `state` is
  /// the publication fence. Any mutation resets to kIdle under exclusive
  /// ownership (Touch), so matrices folded once and then mutated still
  /// never pay the memo's allocation + copy.
  struct FoldMemo {
    enum State : uint32_t {
      kIdle = 0,       ///< No fold at the current version yet.
      kMissed = 1,     ///< One fold ran; the next one stores the memo.
      kComputing = 2,  ///< A thread is computing + storing the memo.
      kPublished = 3,  ///< `bits` is valid for the current version.
    };
    std::shared_ptr<const Bitvector> bits;
    std::atomic<uint32_t> state{kIdle};

    FoldMemo() = default;
    /// Copies are taken under exclusive ownership of the source's owner
    /// (thread-confined snapshots), but tolerate a racing publisher by
    /// only reading `bits` behind an acquire-load of kPublished; an
    /// observed in-flight kComputing degrades to kMissed in the copy.
    FoldMemo& operator=(const FoldMemo& other) {
      uint32_t s = other.state.load(std::memory_order_acquire);
      bits = s == kPublished ? other.bits : nullptr;
      if (s == kComputing) s = kMissed;
      state.store(s, std::memory_order_relaxed);
      return *this;
    }
    FoldMemo(const FoldMemo& other) { *this = other; }
    FoldMemo(FoldMemo&& other) noexcept { *this = other; }
    FoldMemo& operator=(FoldMemo&& other) noexcept { return *this = other; }
  };
  mutable FoldMemo col_fold_;
};

}  // namespace lbr

#endif  // LBR_BITMAT_BITMAT_H_
