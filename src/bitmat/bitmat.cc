#include "bitmat/bitmat.h"

#include <cassert>
#include <utility>

namespace lbr {

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

void BitMat::FoldInto(Dim retain, Bitvector* out, ExecContext* ctx) const {
  if (retain == Dim::kRow) {
    // Incrementally maintained metadata — already "memoized" by
    // construction; not counted in the fold-cache telemetry.
    out->AssignResized(non_empty_rows_, num_rows_);
    return;
  }
  if (col_fold_.bits != nullptr) {
    // Word copy of the memo; no row is touched.
    out->AssignResized(*col_fold_.bits, num_cols_);
    if (ctx != nullptr) ctx->CountFoldHit();
    return;
  }
  ComputeColFoldInto(out);
  if (ctx != nullptr) ctx->CountFoldMiss();
  if (!col_fold_.seen) {
    // First fold at this version: only record that it happened.
    col_fold_.seen = true;
    return;
  }
  // Second fold at this version: the result is evidently reused.
  col_fold_.bits = std::make_shared<const Bitvector>(*out);
}

void BitMat::ComputeColFoldInto(Bitvector* out) const {
  out->Resize(num_cols_);
  out->Clear();
  // Only non-empty rows contribute; each ORs in word-at-a-time.
  non_empty_rows_.ForEachSetBit(
      [this, out](uint32_t r) { rows_[r]->OrInto(out); });
}

void BitMat::MemoizeColFold() const {
  if (ColFoldMemoized()) return;
  auto fold = std::make_shared<Bitvector>();
  ComputeColFoldInto(fold.get());
  col_fold_.bits = std::move(fold);
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

void BitMat::Unfold(const Bitvector& mask, Dim retain, ExecContext* ctx) {
  // Iteration walks only the populated rows (word scan of
  // non_empty_rows_); clearing the bit of the row just visited is safe
  // because ForEachSetBit captures each word before yielding its bits.
  uint64_t removed = 0;
  bool changed = false;
  if (retain == Dim::kRow) {
    // Clear entire rows whose mask bit is 0 — a handle drop, no payload
    // walk; surviving rows stay shared.
    non_empty_rows_.ForEachSetBit([&](uint32_t r) {
      if (r >= mask.size() || !mask.Get(r)) {
        removed += rows_[r]->Count();
        rows_[r] = nullptr;
        non_empty_rows_.Set(r, false);
        changed = true;
      }
    });
  } else {
    // AND every row with the mask. A row that loses no bit keeps its
    // shared handle (aliased copies are untouched); a changed row is
    // re-encoded into a fresh handle from pooled scratch (MaskedRow, the
    // shared CoW masking step).
    ScratchPositions scratch(ctx);
    non_empty_rows_.ForEachSetBit([&](uint32_t r) {
      RowHandle masked = MaskedRow(rows_[r], mask, scratch.get());
      if (masked == rows_[r]) return;  // no bit dropped
      removed += rows_[r]->Count();
      rows_[r] = std::move(masked);
      if (rows_[r] != nullptr) removed -= rows_[r]->Count();
      non_empty_rows_.Set(r, rows_[r] != nullptr);
      changed = true;
    });
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
