#ifndef LBR_UTIL_COMPRESSED_ROW_H_
#define LBR_UTIL_COMPRESSED_ROW_H_

#include <cstdint>
#include <vector>

#include "util/bitvector.h"

namespace lbr {

/// One compressed row of a BitMat (Section 4 of the paper).
///
/// The paper's hybrid compression stores each bit-row either as
///  - run-length encoding: a leading bit value plus run lengths
///    ("1110011110" -> [1] 3 2 4 1), or
///  - the explicit sorted positions of the set bits ("0010010000" -> 3 6),
/// whichever uses fewer 4-byte integers. The hybrid fetches ~40% index-size
/// reduction over pure RLE on sparse rows.
///
/// All operations (`Test`, `OrInto`, `AndWith`, iteration) work directly on
/// the compressed form; a row is never expanded to an uncompressed bit
/// buffer.
class CompressedRow {
 public:
  enum class Encoding : uint8_t {
    kEmpty = 0,      ///< No set bits; zero payload.
    kPositions = 1,  ///< Payload is sorted set-bit positions.
    kRuns = 2,       ///< Payload is run lengths; `first_bit` gives run 0's value.
  };

  CompressedRow() = default;

  /// Builds the optimal (smallest) encoding from an uncompressed bit vector.
  static CompressedRow FromBitvector(const Bitvector& bits);
  /// Builds the optimal encoding from sorted, duplicate-free positions.
  static CompressedRow FromPositions(const std::vector<uint32_t>& positions);
  /// Builds a pure run-length encoding (no hybrid fallback). Used by the
  /// index-size ablation to quantify the hybrid's savings.
  static CompressedRow RleOnlyFromPositions(
      const std::vector<uint32_t>& positions);

  /// Builds a zero-copy *view* over an externally owned payload (a snapshot
  /// extent in a memory-mapped file). The row borrows `payload` — the
  /// caller guarantees the words outlive every copy of the view (snapshot
  /// extents live as long as the TripleIndex's mapping, so views sliced out
  /// of them are safe to share, cache, and copy). All read operations work
  /// identically on views; the first mutating operation (AndWithInPlace
  /// re-encode) converts the row to owned storage.
  static CompressedRow View(Encoding encoding, bool first_bit, uint32_t count,
                            const uint32_t* payload, uint32_t payload_words);

  /// True when the payload is borrowed (see View()).
  bool is_view() const { return ext_data_ != nullptr; }

  /// Heap bytes owned by this row (0 for views) — the unit of the snapshot
  /// tier's resident-memory accounting.
  size_t OwnedHeapBytes() const {
    return ext_data_ != nullptr ? 0 : payload_.capacity() * sizeof(uint32_t);
  }

  Encoding encoding() const { return encoding_; }
  bool IsEmpty() const { return encoding_ == Encoding::kEmpty; }
  /// Value of run 0 (kRuns only) — exposed for snapshot serialization.
  bool first_bit() const { return first_bit_; }

  /// Number of set bits.
  uint32_t Count() const { return count_; }

  /// Returns true iff bit `pos` is set.
  bool Test(uint32_t pos) const;

  /// ORs this row into `*out` (out->size() must cover every set position).
  void OrInto(Bitvector* out) const;

  /// Returns this row ANDed with `mask`: only set bits whose position is set
  /// in `mask` survive. Positions >= mask.size() are dropped.
  CompressedRow AndWith(const Bitvector& mask) const;

  /// In-place AndWith: re-encodes this row to the masked row, reusing the
  /// payload's capacity. `scratch` (optional) receives the surviving
  /// positions and keeps its capacity across calls, so a warmed-up caller
  /// performs no heap allocation; pass one when calling in a loop.
  void AndWithInPlace(const Bitvector& mask,
                      std::vector<uint32_t>* scratch = nullptr);

  /// True iff the intersection with `mask` is non-empty (no allocation).
  /// Run-encoded rows test whole 64-bit mask words with early exit.
  bool IntersectsWith(const Bitvector& mask) const;

  /// Keeps only the entries of `positions` (sorted ascending) whose bit is
  /// set in this row — a single linear merge over the two compressed
  /// sequences (two-pointer walk on position rows, run walk on RLE rows),
  /// in place. The compressed-space form of candidate ∧ constraint-row for
  /// the multiway join: O(|positions| + payload) with sequential access,
  /// where per-candidate Test probes would pay a search per entry.
  void IntersectSortedPositions(std::vector<uint32_t>* positions) const;

  /// True iff every set bit of this row is also set in `mask` — i.e. the
  /// mask would drop nothing. Word-parallel on run rows, early exit on the
  /// first hole, no allocation; the fast path of the copy-on-write unfold
  /// ("unchanged rows keep their shared handle"). Bits at positions >=
  /// mask.size() count as dropped.
  bool IsSubsetOf(const Bitvector& mask) const;

  /// Appends the positions surviving `mask` (ascending) to `*out` without
  /// re-encoding; the word-parallel core shared by AndWith/AndWithInPlace.
  /// Callers that must not mutate a shared row (BitMat's copy-on-write
  /// Unfold) use this to decide whether any bit is dropped before cloning.
  void AppendMaskedPositions(const Bitvector& mask,
                             std::vector<uint32_t>* out) const;

  /// Appends all set-bit positions (ascending) to `*out`.
  void AppendSetBits(std::vector<uint32_t>* out) const;
  std::vector<uint32_t> SetBits() const;

  /// Calls `fn(pos)` for every set bit, ascending.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    const uint32_t* pd = pdata();
    const size_t pn = psize();
    switch (encoding_) {
      case Encoding::kEmpty:
        return;
      case Encoding::kPositions:
        for (size_t i = 0; i < pn; ++i) fn(pd[i]);
        return;
      case Encoding::kRuns: {
        uint32_t pos = 0;
        bool bit = first_bit_;
        for (size_t r = 0; r < pn; ++r) {
          uint32_t run = pd[r];
          if (bit) {
            for (uint32_t i = 0; i < run; ++i) fn(pos + i);
          }
          pos += run;
          bit = !bit;
        }
        return;
      }
    }
  }

  /// Bytes used by the payload (the 4-byte integers of the paper's scheme),
  /// for index-size accounting. Views count their borrowed words.
  size_t PayloadBytes() const { return psize() * sizeof(uint32_t); }
  /// Number of payload integers.
  size_t PayloadInts() const { return psize(); }

  /// Payload span: the owned vector or, for views, the borrowed extent
  /// words. Every read path decodes through this pair, so views and owned
  /// rows are indistinguishable to consumers.
  const uint32_t* pdata() const {
    return ext_data_ != nullptr ? ext_data_ : payload_.data();
  }
  size_t psize() const {
    return ext_data_ != nullptr ? ext_size_ : payload_.size();
  }

  bool operator==(const CompressedRow& other) const;
  bool operator!=(const CompressedRow& other) const {
    return !(*this == other);
  }

 private:
  static CompressedRow EncodeOptimal(const std::vector<uint32_t>& positions,
                                     bool allow_positions);
  /// Re-encodes `positions` into `*row`, reusing row->payload_'s capacity.
  /// `positions` must not alias row->payload_.
  static void EncodeOptimalInto(const std::vector<uint32_t>& positions,
                                bool allow_positions, CompressedRow* row);

  Encoding encoding_ = Encoding::kEmpty;
  bool first_bit_ = false;       // Only meaningful for kRuns.
  uint32_t count_ = 0;           // Cached set-bit count.
  std::vector<uint32_t> payload_;
  // View mode (snapshot extents): non-null borrows `ext_size_` words from
  // external storage; payload_ stays empty. Copies stay views (the borrow
  // outlives them by the View() contract); re-encoding clears it.
  const uint32_t* ext_data_ = nullptr;
  uint32_t ext_size_ = 0;
};

}  // namespace lbr

#endif  // LBR_UTIL_COMPRESSED_ROW_H_
