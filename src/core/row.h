#ifndef LBR_CORE_ROW_H_
#define LBR_CORE_ROW_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace lbr {

/// NULL marker inside a result row (a left-outer-join miss).
constexpr uint64_t kNullBinding = std::numeric_limits<uint64_t>::max();

/// One result row in the global ID space: one slot per query variable,
/// kNullBinding for unbound. Column order is fixed by the engine's variable
/// table. The public row-at-a-time surface (Engine::RowSink); the engine
/// itself keeps its rows in a RowSlab.
using RawRow = std::vector<uint64_t>;

/// True iff the `width` bindings at `sub` are subsumed by those at `super`
/// (sub ❁ super, Section 3.1): every non-null binding of `sub` equals the
/// corresponding binding of `super`, and `super` has strictly more
/// non-null bindings.
inline bool IsSubsumedBy(const uint64_t* sub, const uint64_t* super,
                         size_t width) {
  bool super_has_more = false;
  for (size_t i = 0; i < width; ++i) {
    if (sub[i] == kNullBinding) {
      if (super[i] != kNullBinding) super_has_more = true;
    } else if (sub[i] != super[i]) {
      return false;
    }
  }
  return super_has_more;
}

inline bool IsSubsumedBy(const RawRow& sub, const RawRow& super) {
  return IsSubsumedBy(sub.data(), super.data(), sub.size());
}

/// Number of null bindings among the `width` at `row`.
inline size_t CountNulls(const uint64_t* row, size_t width) {
  size_t n = 0;
  for (size_t i = 0; i < width; ++i) {
    if (row[i] == kNullBinding) ++n;
  }
  return n;
}

inline size_t CountNulls(const RawRow& row) {
  return CountNulls(row.data(), row.size());
}

/// The engine's result rows, from the join sink to the commit point, in one
/// flat buffer of bindings: row i is the `width()` cells starting at
/// row(i). The row count is kept explicitly, so rows of zero columns (the
/// one empty mapping of an all-constant pattern) count like any other.
/// Appending costs no allocation beyond the buffer's amortized growth.
class RowSlab {
 public:
  explicit RowSlab(size_t width = 0) : width_(width) {}

  size_t width() const { return width_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  const uint64_t* row(size_t i) const { return cells_.data() + i * width_; }

  void Reserve(size_t rows) { cells_.reserve(rows * width_); }

  /// Appends a row copied from the width() cells at `cells`.
  void Append(const uint64_t* cells) {
    cells_.insert(cells_.end(), cells, cells + width_);
    ++rows_;
  }
  /// Appends a row of NULL bindings and returns its cells.
  uint64_t* AppendNulls() {
    cells_.resize(cells_.size() + width_, kNullBinding);
    return cells_.data() + rows_++ * width_;
  }
  /// Appends every row of `other`, which has the same width.
  void AppendAll(const RowSlab& other) {
    cells_.insert(cells_.end(), other.cells_.begin(), other.cells_.end());
    rows_ += other.rows_;
  }
  /// Drops the last row.
  void PopBack() {
    cells_.resize(cells_.size() - width_);
    --rows_;
  }

 private:
  size_t width_;
  size_t rows_ = 0;
  std::vector<uint64_t> cells_;
};

/// Counts equal rows of one RowSlab (phantom-row dedup, UNION multiplicity
/// repair): an open-addressing table of row indexes keyed by the rows'
/// bindings, so counting a row allocates nothing beyond the table's
/// amortized doubling. Only the first row of each distinct value is stored,
/// so rows added after it may be dropped from the slab (PopBack) freely.
class SlabRowCounter {
 public:
  explicit SlabRowCounter(const RowSlab* slab) : slab_(slab) {}

  /// Counts one more occurrence of the bindings of row `i` and returns the
  /// count so far (1 for the first).
  size_t Add(size_t i);

 private:
  struct Slot {
    uint64_t hash = 0;
    size_t row = kEmpty;  ///< First row with these bindings.
    size_t count = 0;
  };
  static constexpr size_t kEmpty = std::numeric_limits<size_t>::max();

  uint64_t Hash(size_t i) const;
  void Grow();

  const RowSlab* slab_;
  std::vector<Slot> slots_;  ///< Power-of-two sized, at most half full.
  size_t used_ = 0;
};

}  // namespace lbr

#endif  // LBR_CORE_ROW_H_
