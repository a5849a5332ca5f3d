#include "bitmat/bitmat.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <istream>
#include <mutex>
#include <ostream>
#include <utility>

#include "util/thread_pool.h"

namespace lbr {

namespace {

/// Minimum *non-empty* rows before a fold/unfold shards across a pool:
/// below this the collective's wake/merge overhead beats the row work.
/// Gating on the populated count matters on the prune hot path — a heavily
/// pruned 100K-row matrix with 50 surviving rows folds serially in a
/// handful of ORs, and waking the pool for it would be a strict loss.
constexpr uint64_t kParallelRowThreshold = 4096;

/// Chunk size for row sharding: large enough to amortize the per-chunk
/// claim + (for folds) the whole-width merge OR, 64-aligned so each
/// non-empty-row word belongs to exactly one chunk.
uint32_t RowGrain(uint32_t num_rows, int slots) {
  uint32_t grain = num_rows / static_cast<uint32_t>(slots * 4);
  grain = std::max<uint32_t>(1024, grain);
  return (grain + 63) & ~63u;
}

bool ShouldParallelize(const ThreadPool* pool, const Bitvector& populated) {
  // Pool checks first: the popcount is only paid when a pool is actually
  // in play, so the (common) single-threaded configuration keeps its old
  // cost profile exactly.
  return pool != nullptr && pool->num_workers() > 0 &&
         !ThreadPool::InParallelRegion() &&
         populated.Count() >= kParallelRowThreshold;
}

/// Calls fn(i) for every set bit of `bits` in [begin, end), in order.
/// Chunk boundaries are 64-aligned, so each worker reads disjoint words;
/// the chunk cost is O(words in range + set bits in range), matching the
/// serial ForEachSetBit path instead of scanning every row index.
template <typename Fn>
void ForEachSetBitInRange(const Bitvector& bits, uint32_t begin, uint32_t end,
                          Fn&& fn) {
  const std::vector<uint64_t>& words = bits.words();
  size_t w_begin = begin >> 6;
  size_t w_end = std::min<size_t>(words.size(), (end + 63) >> 6);
  for (size_t w = w_begin; w < w_end; ++w) {
    uint64_t word = words[w];
    if (w == w_begin) word &= ~uint64_t{0} << (begin & 63);
    while (word != 0) {
      unsigned tz = __builtin_ctzll(word);
      uint32_t i = static_cast<uint32_t>((w << 6) + tz);
      if (i >= end) return;  // tail word of an unaligned final chunk
      fn(i);
      word &= word - 1;
    }
  }
}

}  // namespace

BitMat::BitMat(uint32_t num_rows, uint32_t num_cols)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      rows_(num_rows),
      non_empty_rows_(num_rows) {}

void BitMat::SetRow(uint32_t r, const std::vector<uint32_t>& positions) {
  SetRow(r, CompressedRow::FromPositions(positions));
}

void BitMat::SetRow(uint32_t r, CompressedRow row) {
  SetRowShared(r, row.IsEmpty()
                      ? RowHandle()
                      : std::make_shared<const CompressedRow>(std::move(row)));
}

void BitMat::SetRowShared(uint32_t r, RowHandle row) {
  assert(r < num_rows_);
  if (row != nullptr && row->IsEmpty()) row = nullptr;
  if (rows_[r] != nullptr) count_ -= rows_[r]->Count();
  rows_[r] = std::move(row);
  if (rows_[r] != nullptr) count_ += rows_[r]->Count();
  non_empty_rows_.Set(r, rows_[r] != nullptr);
  Touch();
}

Bitvector BitMat::Fold(Dim retain) const {
  Bitvector out;
  FoldInto(retain, &out);
  return out;
}

void BitMat::FoldInto(Dim retain, Bitvector* out, ExecContext* ctx,
                      ThreadPool* pool) const {
  if (retain == Dim::kRow) {
    // Incrementally maintained metadata — already "memoized" by
    // construction; not counted in the fold-cache telemetry.
    out->AssignResized(non_empty_rows_, num_rows_);
    return;
  }
  uint32_t s = col_fold_.state.load(std::memory_order_acquire);
  if (s == FoldMemo::kPublished) {
    // Word copy of the memo; no row is touched.
    out->AssignResized(*col_fold_.bits, num_cols_);
    if (ctx != nullptr) ctx->CountFoldHit();
    return;
  }
  if (s == FoldMemo::kIdle &&
      col_fold_.state.compare_exchange_strong(s, FoldMemo::kMissed,
                                              std::memory_order_acq_rel)) {
    // First fold at this version: only record that it happened (the
    // second-touch policy). Exactly one racing fold wins this edge.
    ComputeColFoldInto(out, pool);
    if (ctx != nullptr) ctx->CountFoldMiss();
    return;
  }
  // A failed CAS reloads `s`, so it now holds the freshly observed state.
  if (s == FoldMemo::kMissed &&
      col_fold_.state.compare_exchange_strong(s, FoldMemo::kComputing,
                                              std::memory_order_acq_rel)) {
    // Second fold at this version: the result is evidently reused — the
    // once path computes it and publishes the memo for everyone.
    ComputeColFoldInto(out, pool);
    col_fold_.bits = std::make_shared<const Bitvector>(*out);
    col_fold_.state.store(FoldMemo::kPublished, std::memory_order_release);
    if (ctx != nullptr) {
      ctx->CountFoldMiss();
      ctx->CountFoldOnce();
    }
    return;
  }
  if (s == FoldMemo::kPublished) {
    // Lost the race to a publisher: its memo is ready — word-copy it.
    out->AssignResized(*col_fold_.bits, num_cols_);
    if (ctx != nullptr) ctx->CountFoldHit();
    return;
  }
  // Another thread holds the once edge (kComputing) or just recorded the
  // miss: fold locally without touching the memo, never blocking.
  ComputeColFoldInto(out, pool);
  if (ctx != nullptr) ctx->CountFoldMiss();
}

void BitMat::ComputeColFoldInto(Bitvector* out, ThreadPool* pool) const {
  out->Resize(num_cols_);
  out->Clear();
  if (!ShouldParallelize(pool, non_empty_rows_)) {
    // Only non-empty rows contribute; each ORs in word-at-a-time.
    non_empty_rows_.ForEachSetBit(
        [this, out](uint32_t r) { rows_[r]->OrInto(out); });
    return;
  }
  // Sharded fold: each chunk ORs its rows into a slot-local partial from
  // the worker's arena, then merges into `out` word-wide under a mutex.
  // Workers only read immutable row payload through the shared handles.
  std::mutex merge_mu;
  uint32_t grain = RowGrain(num_rows_, pool->num_slots());
  pool->ParallelFor(
      0, num_rows_, grain,
      [this, out, &merge_mu](uint32_t begin, uint32_t end, ExecContext* ctx,
                             int /*slot*/) {
        ScratchBits partial(ctx, num_cols_);
        ForEachSetBitInRange(non_empty_rows_, begin, end, [&](uint32_t r) {
          rows_[r]->OrInto(partial.get());
        });
        std::lock_guard<std::mutex> lk(merge_mu);
        out->Or(*partial);
      });
}

void BitMat::MemoizeColFold(ThreadPool* pool) const {
  // Owner-exclusive warm path (cache entries are memoized before they are
  // published): no CAS dance, just compute and publish.
  if (ColFoldMemoized()) return;
  auto fold = std::make_shared<Bitvector>();
  ComputeColFoldInto(fold.get(), pool);
  col_fold_.bits = std::move(fold);
  col_fold_.state.store(FoldMemo::kPublished, std::memory_order_release);
}

BitMat::RowHandle BitMat::MaskedRow(const RowHandle& row,
                                    const Bitvector& mask,
                                    std::vector<uint32_t>* scratch) {
  if (row->IsSubsetOf(mask)) return row;  // no bit dropped: keep sharing
  scratch->clear();
  row->AppendMaskedPositions(mask, scratch);
  if (scratch->empty()) return nullptr;  // nothing survives
  return std::make_shared<const CompressedRow>(
      CompressedRow::FromPositions(*scratch));
}

void BitMat::Unfold(const Bitvector& mask, Dim retain, ExecContext* ctx,
                    ThreadPool* pool) {
  // Per-row-range masking step, shared by the serial and sharded paths.
  // Returns the count of removed bits in [begin, end) and records whether
  // anything changed. Writes only rows_[r] / non-empty bits inside the
  // range, so 64-aligned disjoint ranges never share a word.
  // Iteration walks only the populated rows of the range (word scan of
  // non_empty_rows_); mutating the bit at the row just visited is safe
  // because each word is captured before its bits are yielded.
  auto unfold_range = [this, &mask, retain](uint32_t begin, uint32_t end,
                                            std::vector<uint32_t>* scratch,
                                            bool* range_changed) -> uint64_t {
    uint64_t removed = 0;
    if (retain == Dim::kRow) {
      // Clear entire rows whose mask bit is 0 — a handle drop, no payload
      // walk; surviving rows stay shared.
      ForEachSetBitInRange(non_empty_rows_, begin, end, [&](uint32_t r) {
        if (r >= mask.size() || !mask.Get(r)) {
          removed += rows_[r]->Count();
          rows_[r] = nullptr;
          non_empty_rows_.Set(r, false);
          *range_changed = true;
        }
      });
    } else {
      // AND every row with the mask. A row that loses no bit keeps its
      // shared handle (aliased copies are untouched); a changed row is
      // re-encoded into a fresh handle from pooled scratch (MaskedRow, the
      // shared CoW masking step).
      ForEachSetBitInRange(non_empty_rows_, begin, end, [&](uint32_t r) {
        RowHandle masked = MaskedRow(rows_[r], mask, scratch);
        if (masked == rows_[r]) return;  // no bit dropped
        removed += rows_[r]->Count();
        rows_[r] = std::move(masked);
        if (rows_[r] != nullptr) removed -= rows_[r]->Count();
        non_empty_rows_.Set(r, rows_[r] != nullptr);
        *range_changed = true;
      });
    }
    return removed;
  };

  bool changed = false;
  uint64_t removed = 0;
  if (!ShouldParallelize(pool, non_empty_rows_)) {
    ScratchPositions scratch(ctx);
    removed = unfold_range(0, num_rows_, scratch.get(), &changed);
  } else {
    // 64-aligned chunks: each non-empty-row word is written by at most one
    // worker; rows_[] writes are disjoint by range; the count delta is
    // merged through an atomic.
    std::atomic<uint64_t> removed_total{0};
    std::atomic<bool> any_changed{false};
    uint32_t grain = RowGrain(num_rows_, pool->num_slots());
    pool->ParallelFor(
        0, num_rows_, grain,
        [&unfold_range, &removed_total, &any_changed](
            uint32_t begin, uint32_t end, ExecContext* chunk_ctx,
            int /*slot*/) {
          ScratchPositions scratch(chunk_ctx);
          bool range_changed = false;
          uint64_t r = unfold_range(begin, end, scratch.get(), &range_changed);
          if (r != 0) removed_total.fetch_add(r, std::memory_order_relaxed);
          if (range_changed) {
            any_changed.store(true, std::memory_order_relaxed);
          }
        },
        ctx);
    removed = removed_total.load();
    changed = any_changed.load();
  }
  count_ -= removed;
  if (changed) Touch();
}

BitMat BitMat::Transposed() const {
  // Bucket the set bits by column, then compress each bucket.
  std::vector<std::vector<uint32_t>> cols(num_cols_);
  ForEachBit([&cols](uint32_t r, uint32_t c) { cols[c].push_back(r); });
  BitMat t(num_cols_, num_rows_);
  for (uint32_t c = 0; c < num_cols_; ++c) {
    if (!cols[c].empty()) t.SetRow(c, cols[c]);
  }
  return t;
}

void BitMat::AppendColumnPositions(uint32_t c,
                                   std::vector<uint32_t>* out) const {
  non_empty_rows_.ForEachSetBit([this, c, out](uint32_t r) {
    if (rows_[r]->Test(c)) out->push_back(r);
  });
}

BitMat BitMat::DeepCopy() const {
  BitMat out(num_rows_, num_cols_);
  for (uint32_t r = 0; r < num_rows_; ++r) {
    if (rows_[r] != nullptr) out.SetRow(r, CompressedRow(*rows_[r]));
  }
  return out;
}

size_t BitMat::PayloadBytes() const {
  size_t bytes = 0;
  for (const RowHandle& r : rows_) {
    if (r != nullptr) bytes += r->PayloadBytes();
  }
  return bytes;
}

void BitMat::WriteTo(std::ostream* out) const {
  out->write(reinterpret_cast<const char*>(&num_rows_), sizeof(num_rows_));
  out->write(reinterpret_cast<const char*>(&num_cols_), sizeof(num_cols_));
  // Only non-empty rows are written: (row_index, row) pairs.
  uint32_t non_empty = 0;
  for (uint32_t r = 0; r < num_rows_; ++r) {
    if (rows_[r] != nullptr) ++non_empty;
  }
  out->write(reinterpret_cast<const char*>(&non_empty), sizeof(non_empty));
  for (uint32_t r = 0; r < num_rows_; ++r) {
    if (rows_[r] == nullptr) continue;
    out->write(reinterpret_cast<const char*>(&r), sizeof(r));
    rows_[r]->WriteTo(out);
  }
}

BitMat BitMat::ReadFrom(std::istream* in) {
  uint32_t num_rows = 0, num_cols = 0, non_empty = 0;
  in->read(reinterpret_cast<char*>(&num_rows), sizeof(num_rows));
  in->read(reinterpret_cast<char*>(&num_cols), sizeof(num_cols));
  in->read(reinterpret_cast<char*>(&non_empty), sizeof(non_empty));
  BitMat bm(num_rows, num_cols);
  for (uint32_t i = 0; i < non_empty; ++i) {
    uint32_t r = 0;
    in->read(reinterpret_cast<char*>(&r), sizeof(r));
    bm.SetRow(r, CompressedRow::ReadFrom(in));
  }
  return bm;
}

bool BitMat::operator==(const BitMat& other) const {
  if (num_rows_ != other.num_rows_ || num_cols_ != other.num_cols_ ||
      count_ != other.count_) {
    return false;
  }
  for (uint32_t r = 0; r < num_rows_; ++r) {
    const RowHandle& a = rows_[r];
    const RowHandle& b = other.rows_[r];
    if (a == b) continue;  // same handle (or both empty)
    if (a == nullptr || b == nullptr) return false;
    if (*a != *b) return false;
  }
  return true;
}

}  // namespace lbr
