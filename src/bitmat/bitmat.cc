#include "bitmat/bitmat.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lbr {

BitMat::BitMat(uint32_t num_rows, uint32_t num_cols)
    : num_rows_(num_rows), num_cols_(num_cols), non_empty_rows_(num_rows) {}

const BitMat::RowHandle& BitMat::UnitRow() {
  // Never destroyed, so handles in other static-lifetime objects stay
  // valid; the aliasing constructor with an empty owner yields a non-null
  // handle without a control block.
  static const CompressedRow* const kRow =
      new CompressedRow(CompressedRow::FromPositions({0}));
  static const RowHandle kHandle(std::shared_ptr<const void>(), kRow);
  return kHandle;
}

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
  if (ids_.empty() || r > ids_.back()) {
    if (row != nullptr) {
      count_ += row->Count();
      Append(r, std::move(row));
    }
  } else {
    Splice(r, std::move(row));
    CheckInvariants();
  }
  Touch();
}

void BitMat::Append(uint32_t r, RowHandle row) {
  const size_t w = r >> 6;
  // Words between the previous last row and r hold no row: each one's
  // rank is the current row count.
  if (rank_.size() <= w) {
    rank_.resize(w + 1, static_cast<uint32_t>(ids_.size()));
  }
  ids_.push_back(r);
  handles_.push_back(std::move(row));
  non_empty_rows_.Set(r);
  // The O(1) tail of CheckInvariants, so a bulk load stays linear in
  // Debug builds too.
  assert(ids_.size() < 2 || ids_[ids_.size() - 2] < r);
  assert(rank_.size() == w + 1);
}

void BitMat::Splice(uint32_t r, RowHandle row) {
  const size_t w = r >> 6;
  const uint64_t bit = uint64_t{1} << (r & 63);
  const uint64_t word = non_empty_rows_.words()[w];
  const size_t i = rank_[w] + __builtin_popcountll(word & (bit - 1));
  if ((word & bit) != 0) {
    count_ -= handles_[i]->Count();
    if (row != nullptr) {  // replace in place: no id or rank changes
      count_ += row->Count();
      handles_[i] = std::move(row);
      return;
    }
    ids_.erase(ids_.begin() + i);
    handles_.erase(handles_.begin() + i);
    non_empty_rows_.Set(r, false);
  } else {
    if (row == nullptr) return;  // already empty
    count_ += row->Count();
    ids_.insert(ids_.begin() + i, r);
    handles_.insert(handles_.begin() + i, std::move(row));
    non_empty_rows_.Set(r);
  }
  RebuildRank();
}

void BitMat::RebuildRank() {
  const std::vector<uint64_t>& words = non_empty_rows_.words();
  rank_.resize(ids_.empty() ? 0 : (ids_.back() >> 6) + 1);
  uint32_t below = 0;
  for (size_t w = 0; w < rank_.size(); ++w) {
    rank_[w] = below;
    below += static_cast<uint32_t>(__builtin_popcountll(words[w]));
  }
}

#ifndef NDEBUG
void BitMat::CheckInvariants() const {
  assert(ids_.size() == handles_.size());
  assert(non_empty_rows_.size() == num_rows_);
  assert(non_empty_rows_.Count() == ids_.size());
  uint64_t count = 0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    assert(ids_[i] < num_rows_);
    assert(i == 0 || ids_[i - 1] < ids_[i]);
    assert(non_empty_rows_.Get(ids_[i]));
    assert(handles_[i] != nullptr && !handles_[i]->IsEmpty());
    count += handles_[i]->Count();
  }
  assert(count == count_);
  assert(rank_.size() == (ids_.empty() ? 0 : (ids_.back() >> 6) + 1));
  uint32_t below = 0;
  for (size_t w = 0; w < rank_.size(); ++w) {
    assert(rank_[w] == below);
    below += static_cast<uint32_t>(
        __builtin_popcountll(non_empty_rows_.words()[w]));
  }
}
#endif

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
  out->Resize(num_cols_);
  out->Clear();
  // Only non-empty rows are stored; each ORs in word-at-a-time.
  for (const RowHandle& row : handles_) row->OrInto(out);
  if (ctx != nullptr) ctx->CountFoldMiss();
  if (!col_fold_.seen) {
    // First fold since the last mutation: only record that it happened.
    col_fold_.seen = true;
    return;
  }
  // Second fold since the last mutation: the result is evidently reused.
  col_fold_.bits = std::make_shared<const Bitvector>(*out);
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
  // One compacting pass over the stored rows: survivors slide down to
  // slot `kept`, emptied rows drop out of the ids, handles and
  // non-empty bits; the rank words are rebuilt once at the end.
  uint64_t removed = 0;  // nonzero iff some bit was cleared
  size_t kept = 0;
  // Slides slot i down to slot `kept` (a no-op while nothing was dropped).
  auto keep = [&](size_t i) {
    if (kept != i) {
      ids_[kept] = ids_[i];
      handles_[kept] = std::move(handles_[i]);
    }
    ++kept;
  };
  if (retain == Dim::kRow) {
    // Drop entire rows whose mask bit is 0 — a handle drop, no payload
    // walk; surviving rows stay shared.
    for (size_t i = 0; i < ids_.size(); ++i) {
      const uint32_t r = ids_[i];
      if (r < mask.size() && mask.Get(r)) {
        keep(i);
        continue;
      }
      removed += handles_[i]->Count();
      non_empty_rows_.Set(r, false);
    }
  } else {
    // AND every row with the mask. A row that loses no bit keeps its
    // shared handle (aliased copies are untouched); a changed row is
    // re-encoded into a fresh handle from pooled scratch (MaskedRow, the
    // shared CoW masking step).
    ScratchPositions scratch(ctx);
    for (size_t i = 0; i < ids_.size(); ++i) {
      RowHandle masked = MaskedRow(handles_[i], mask, scratch.get());
      if (masked != handles_[i]) {
        removed += handles_[i]->Count();
        if (masked == nullptr) {
          non_empty_rows_.Set(ids_[i], false);
          continue;
        }
        removed -= masked->Count();
        handles_[i] = std::move(masked);
      }
      keep(i);
    }
  }
  if (kept != ids_.size()) {
    ids_.resize(kept);
    handles_.resize(kept);
    RebuildRank();
  }
  count_ -= removed;
  if (removed != 0) Touch();
  CheckInvariants();
}

BitMat::Builder::Builder(uint32_t num_rows, uint32_t num_cols)
    : bm_(num_rows, num_cols) {}

void BitMat::Builder::Reserve(size_t rows, size_t payload_words) {
  bm_.ids_.reserve(rows);
  bm_.handles_.reserve(rows);
  rows_hint_ = rows;
  if (payload_words > 0) next_block_words_ = payload_words;
}

BitMat::Builder::Arena& BitMat::Builder::GetArena() {
  if (arena_ == nullptr) {
    arena_ = std::make_shared<Arena>();
    arena_->rows.reserve(rows_hint_);
  }
  return *arena_;
}

std::vector<uint32_t>* BitMat::Builder::BlockWithRoom(size_t words) {
  std::vector<std::vector<uint32_t>>& blocks = GetArena().blocks;
  if (blocks.empty() ||
      blocks.back().capacity() - blocks.back().size() < words) {
    const size_t size = std::max(words, next_block_words_);
    blocks.emplace_back();
    blocks.back().reserve(size);
    next_block_words_ = 2 * size;
  }
  return &blocks.back();
}

void BitMat::Builder::Place(uint32_t r, CompressedRow row) {
  Arena& arena = GetArena();
  bm_.count_ += row.Count();
  arena.rows.push_back(std::move(row));
  bm_.Append(r, nullptr);  // Finish points the slot at the arena row
}

void BitMat::Builder::Add(uint32_t r, const CompressedRow& row) {
  if (row.IsEmpty()) return;
  if (row.is_view()) {
    Place(r, row);
    return;
  }
  std::vector<uint32_t>* block = BlockWithRoom(row.psize());
  const uint32_t* words = block->data() + block->size();
  block->insert(block->end(), row.pdata(), row.pdata() + row.psize());
  bm_.arena_bytes_ += row.PayloadBytes();
  Place(r, CompressedRow::View(row.encoding(), row.first_bit(), row.Count(),
                               words, static_cast<uint32_t>(row.psize())));
}

void BitMat::Builder::AddPositions(uint32_t r,
                                   const std::vector<uint32_t>& positions) {
  if (positions.empty()) return;
  CompressedRow row = CompressedRow::AppendEncoded(
      positions, BlockWithRoom(positions.size()));
  bm_.arena_bytes_ += row.PayloadBytes();
  Place(r, std::move(row));
}

void BitMat::Builder::AddMasked(uint32_t r, const CompressedRow& row,
                                const Bitvector& mask,
                                std::vector<uint32_t>* scratch) {
  if (row.IsSubsetOf(mask)) {  // no bit dropped: keep the row as is
    Add(r, row);
    return;
  }
  scratch->clear();
  row.AppendMaskedPositions(mask, scratch);
  AddPositions(r, *scratch);
}

void BitMat::Builder::AddShared(uint32_t r, RowHandle row) {
  bm_.count_ += row->Count();
  bm_.Append(r, std::move(row));
}

BitMat BitMat::Builder::Finish() {
  if (arena_ != nullptr) {
    // The arena's rows are final now, so their addresses are stable.
    size_t k = 0;
    for (RowHandle& slot : bm_.handles_) {
      if (slot == nullptr) slot = RowHandle(arena_, &arena_->rows[k++]);
    }
    assert(k == arena_->rows.size());
  }
  bm_.CheckInvariants();
  return std::move(bm_);
}

BitMat BitMat::Transposed() const {
  // Sort the set bits once by (column, row); each column's rows then form
  // one ascending run, encoded as row `column` of the transpose. The bits
  // arrive row-major, so a stable sort on the column alone suffices: an
  // LSD radix sort over the column's significant bytes, O(bits) per pass.
  std::vector<uint64_t> bits;
  bits.reserve(count_);
  ForEachBit([&bits](uint32_t r, uint32_t c) {
    bits.push_back(uint64_t{c} << 32 | r);
  });
  std::vector<uint64_t> sorted(bits.size());
  const uint64_t max_col = num_cols_ > 0 ? num_cols_ - 1 : 0;
  for (unsigned shift = 32; shift < 64 && (max_col >> (shift - 32)) != 0;
       shift += 8) {
    size_t starts[257] = {};
    for (uint64_t b : bits) ++starts[((b >> shift) & 0xff) + 1];
    for (size_t d = 1; d <= 256; ++d) starts[d] += starts[d - 1];
    for (uint64_t b : bits) sorted[starts[(b >> shift) & 0xff]++] = b;
    bits.swap(sorted);
  }
  sorted = std::vector<uint64_t>();

  // Every column's encoding fits in one payload block of count_ words (no
  // encoding is longer than its positions).
  size_t num_cols_set = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (i == 0 || (bits[i] >> 32) != (bits[i - 1] >> 32)) ++num_cols_set;
  }
  Builder t(num_cols_, num_rows_);
  t.Reserve(num_cols_set, count_);
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < bits.size();) {
    const uint32_t c = static_cast<uint32_t>(bits[i] >> 32);
    rows.clear();
    for (; i < bits.size() && (bits[i] >> 32) == c; ++i) {
      rows.push_back(static_cast<uint32_t>(bits[i]));
    }
    t.AddPositions(c, rows);
  }
  return t.Finish();
}

void BitMat::AppendColumnPositions(uint32_t c,
                                   std::vector<uint32_t>* out) const {
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (handles_[i]->Test(c)) out->push_back(ids_[i]);
  }
}

BitMat BitMat::DeepCopy() const {
  BitMat out = *this;
  out.col_fold_ = FoldMemo();
  for (RowHandle& row : out.handles_) {
    if (!row->is_view()) {
      row = std::make_shared<const CompressedRow>(*row);
      continue;
    }
    // A view's copy borrows the same payload, so it also holds the source
    // handle: the arena it was built in outlives the copy.
    struct Borrowed {
      RowHandle owner;
      CompressedRow row;
    };
    auto copy = std::make_shared<const Borrowed>(Borrowed{row, *row});
    row = RowHandle(copy, &copy->row);
  }
  out.CheckInvariants();
  return out;
}

size_t BitMat::PayloadBytes() const {
  size_t bytes = 0;
  for (const RowHandle& row : handles_) bytes += row->PayloadBytes();
  return bytes;
}

size_t BitMat::HeapBytes() const {
  size_t bytes = ids_.capacity() * sizeof(uint32_t) +
                 handles_.capacity() * sizeof(RowHandle) +
                 rank_.capacity() * sizeof(uint32_t) +
                 non_empty_rows_.words().capacity() * sizeof(uint64_t);
  const RowHandle& unit = UnitRow();
  for (const RowHandle& row : handles_) {
    if (row == unit) continue;
    bytes += sizeof(CompressedRow) + row->OwnedHeapBytes();
  }
  return bytes;
}

bool BitMat::operator==(const BitMat& other) const {
  if (num_rows_ != other.num_rows_ || num_cols_ != other.num_cols_ ||
      count_ != other.count_ || ids_ != other.ids_) {
    return false;
  }
  for (size_t i = 0; i < handles_.size(); ++i) {
    const RowHandle& a = handles_[i];
    const RowHandle& b = other.handles_[i];
    if (a != b && *a != *b) return false;  // same handle, or same bits
  }
  return true;
}

}  // namespace lbr
