#ifndef LBR_UTIL_BITVECTOR_H_
#define LBR_UTIL_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lbr {

/// A dynamically sized, uncompressed bit vector.
///
/// Bitvector is the workhorse behind `fold` results and `unfold` masks
/// (Section 4 of the paper): a fold projects one dimension of a BitMat into
/// a Bitvector, and an unfold uses a Bitvector as the MaskBitArray.
///
/// Words are 64-bit; bit `i` lives at word `i / 64`, position `i % 64`
/// (LSB first). All bits past `size()` are kept zero as an invariant so that
/// whole-word operations (AND/OR/popcount) never see stray bits.
class Bitvector {
 public:
  Bitvector() = default;
  /// Creates a vector of `n` bits, all initialized to `value`.
  explicit Bitvector(size_t n, bool value = false);

  /// Number of bits.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Returns bit `i`. Precondition: `i < size()`.
  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  /// Sets bit `i` to `v`. Precondition: `i < size()`.
  void Set(size_t i, bool v = true) {
    if (v) {
      words_[i >> 6] |= uint64_t{1} << (i & 63);
    } else {
      words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
    }
  }

  /// Resizes to `n` bits; new bits are zero.
  void Resize(size_t n);
  /// Sets every bit to zero (size unchanged).
  void Clear();
  /// Sets every bit to one (size unchanged).
  void Fill();

  /// Sets every bit in [begin, end); the range is clamped to size(). A run
  /// of length L costs O(L/64) words, not O(L) bit writes.
  void SetRange(size_t begin, size_t end);

  /// Clears every bit in [begin, end); the range is clamped to size().
  void ClearRange(size_t begin, size_t end);

  /// Number of set bits.
  size_t Count() const;
  /// True iff no bit is set.
  bool None() const;
  /// True iff every bit is set.
  bool All() const;

  /// Index of the first set bit, or `size()` if none.
  size_t FindFirst() const;
  /// Index of the first set bit at position > `i`, or `size()` if none.
  size_t FindNext(size_t i) const;

  /// In-place intersection with `other`. Sizes must match.
  void And(const Bitvector& other);
  /// In-place union with `other`. Sizes must match.
  void Or(const Bitvector& other);
  /// In-place difference: clears every bit set in `other`. Sizes must match.
  void AndNot(const Bitvector& other);
  /// Flips every bit.
  void Not();

  /// Clears all bits at positions >= `n` (used for domain truncation when
  /// intersecting a subject-dimension fold with an object-dimension fold;
  /// see Appendix D and DESIGN.md on the shared S/O ID space).
  void TruncateBitsFrom(size_t n);

  /// Returns a copy resized to `n` bits: the common prefix is copied
  /// word-wise; new bits are zero, excess bits dropped.
  Bitvector Resized(size_t n) const;

  /// In-place form of `src.Resized(n)` into `*this`, reusing this vector's
  /// word capacity (no allocation once warmed up). `&src` must not be this.
  void AssignResized(const Bitvector& src, size_t n);

  /// Appends the indexes of all set bits to `*out`.
  void AppendSetBits(std::vector<uint32_t>* out) const;
  /// Appends the indexes of the bits set in both `this` and `other` to
  /// `*out`, ascending, without materializing the intersection. Operates on
  /// the common word prefix (zero-tail makes trailing words contribute
  /// nothing), so sizes need not match.
  void AppendAndSetBits(const Bitvector& other,
                        std::vector<uint32_t>* out) const;
  /// Returns the indexes of all set bits.
  std::vector<uint32_t> SetBits() const;

  bool operator==(const Bitvector& other) const;
  bool operator!=(const Bitvector& other) const { return !(*this == other); }

  /// Calls `fn(i)` for every set bit `i`, in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        unsigned tz = __builtin_ctzll(word);
        fn(static_cast<uint32_t>((w << 6) + tz));
        word &= word - 1;
      }
    }
  }

  /// Raw word access (read-only), for serialization and fast bulk ops.
  const std::vector<uint64_t>& words() const { return words_; }

  /// Bulk deserialization: adopts `nwords` raw words as an `nbits`-wide
  /// vector (missing words read as zero, excess tail bits are cleared to
  /// keep the zero-tail invariant).
  void AssignWords(const uint64_t* words, size_t nwords, size_t nbits);

 private:
  // Zeroes any bits in the last word beyond size_.
  void ZeroTail();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace lbr

#endif  // LBR_UTIL_BITVECTOR_H_
