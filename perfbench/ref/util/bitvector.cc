#include "util/bitvector.h"

#include <algorithm>
#include <cassert>

#include "util/bitops.h"

namespace lbr {

using bitops::WordsFor;

Bitvector::Bitvector(size_t n, bool value)
    : size_(n), words_(WordsFor(n), value ? ~uint64_t{0} : 0) {
  ZeroTail();
}

void Bitvector::Resize(size_t n) {
  size_ = n;
  words_.resize(WordsFor(n), 0);
  ZeroTail();
}

void Bitvector::Clear() {
  std::fill(words_.begin(), words_.end(), 0);
}

void Bitvector::AssignWords(const uint64_t* words, size_t nwords,
                            size_t nbits) {
  size_ = nbits;
  words_.assign(WordsFor(nbits), 0);
  std::copy(words, words + std::min(nwords, words_.size()), words_.begin());
  ZeroTail();
}

void Bitvector::Fill() {
  std::fill(words_.begin(), words_.end(), ~uint64_t{0});
  ZeroTail();
}

void Bitvector::SetRange(size_t begin, size_t end) {
  end = std::min(end, size_);
  if (begin >= end) return;
  bitops::SetBitRange(words_.data(), begin, end);
}

void Bitvector::ClearRange(size_t begin, size_t end) {
  end = std::min(end, size_);
  if (begin >= end) return;
  bitops::ClearBitRange(words_.data(), begin, end);
}

size_t Bitvector::Count() const {
  return static_cast<size_t>(bitops::PopcountWords(words_.data(),
                                                   words_.size()));
}

bool Bitvector::None() const {
  return !bitops::AnyWord(words_.data(), words_.size());
}

bool Bitvector::All() const {
  return bitops::AllInRange(words_.data(), 0, size_);
}

size_t Bitvector::FindFirst() const {
  for (size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return (w << 6) + static_cast<size_t>(__builtin_ctzll(words_[w]));
    }
  }
  return size_;
}

size_t Bitvector::FindNext(size_t i) const {
  ++i;
  if (i >= size_) return size_;
  size_t w = i >> 6;
  uint64_t word = words_[w] >> (i & 63);
  if (word != 0) return i + static_cast<size_t>(__builtin_ctzll(word));
  for (++w; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return (w << 6) + static_cast<size_t>(__builtin_ctzll(words_[w]));
    }
  }
  return size_;
}

void Bitvector::And(const Bitvector& other) {
  assert(size_ == other.size_);
  bitops::AndWords(words_.data(), other.words_.data(), words_.size());
}

void Bitvector::Or(const Bitvector& other) {
  assert(size_ == other.size_);
  bitops::OrWords(words_.data(), other.words_.data(), words_.size());
}

void Bitvector::AndNot(const Bitvector& other) {
  assert(size_ == other.size_);
  bitops::AndNotWords(words_.data(), other.words_.data(), words_.size());
}

void Bitvector::Not() {
  for (uint64_t& w : words_) w = ~w;
  ZeroTail();
}

void Bitvector::TruncateBitsFrom(size_t n) {
  // Bits past size_ are already zero by invariant, so clearing [n, size_)
  // suffices; ClearRange clamps.
  ClearRange(n, size_);
}

Bitvector Bitvector::Resized(size_t n) const {
  Bitvector out;
  out.AssignResized(*this, n);
  return out;
}

void Bitvector::AssignResized(const Bitvector& src, size_t n) {
  assert(this != &src);
  size_ = n;
  words_.resize(WordsFor(n));
  size_t copy_words = std::min(words_.size(), src.words_.size());
  std::copy(src.words_.begin(),
            src.words_.begin() + static_cast<long>(copy_words),
            words_.begin());
  std::fill(words_.begin() + static_cast<long>(copy_words), words_.end(), 0);
  ZeroTail();
}

void Bitvector::AppendSetBits(std::vector<uint32_t>* out) const {
  bitops::AppendSetBits(words_.data(), words_.size(), 0, out);
}

void Bitvector::AppendAndSetBits(const Bitvector& other,
                                 std::vector<uint32_t>* out) const {
  size_t n = std::min(words_.size(), other.words_.size());
  bitops::AppendAndSetBits(words_.data(), other.words_.data(), n, out);
}

std::vector<uint32_t> Bitvector::SetBits() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  AppendSetBits(&out);
  return out;
}

bool Bitvector::operator==(const Bitvector& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

void Bitvector::ZeroTail() {
  if (!words_.empty()) words_.back() &= bitops::TailMask(size_);
}

}  // namespace lbr
