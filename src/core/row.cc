#include "core/row.h"

#include <algorithm>

namespace lbr {

uint64_t SlabRowCounter::Hash(size_t i) const {
  const uint64_t* row = slab_->row(i);
  uint64_t h = 0x9e3779b97f4a7c15ull ^ slab_->width();
  for (size_t c = 0; c < slab_->width(); ++c) {
    uint64_t v = row[c] * 0xff51afd7ed558ccdull;  // splitmix64-style mix
    v ^= v >> 33;
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

void SlabRowCounter::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot());
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.row == kEmpty) continue;
    size_t at = s.hash & mask;
    while (slots_[at].row != kEmpty) at = (at + 1) & mask;
    slots_[at] = s;
  }
}

size_t SlabRowCounter::Add(size_t i) {
  if (2 * (used_ + 1) > slots_.size()) Grow();
  const uint64_t h = Hash(i);
  const size_t width = slab_->width();
  const uint64_t* row = slab_->row(i);
  const size_t mask = slots_.size() - 1;
  for (size_t at = h & mask;; at = (at + 1) & mask) {
    Slot& s = slots_[at];
    if (s.row == kEmpty) {
      s = Slot{h, i, 1};
      ++used_;
      return 1;
    }
    if (s.hash == h && std::equal(row, row + width, slab_->row(s.row))) {
      return ++s.count;
    }
  }
}

}  // namespace lbr
