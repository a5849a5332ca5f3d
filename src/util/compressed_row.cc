#include "util/compressed_row.h"

#include <algorithm>
#include <cassert>

#include "util/bitops.h"

namespace lbr {

namespace {

// Number of runs in the RLE form of a row whose set bits are `positions`,
// given that trailing zeros are not encoded (the row is self-delimiting).
// Also reports whether the row starts with a 1-run.
size_t CountRuns(const std::vector<uint32_t>& positions, bool* first_bit) {
  if (positions.empty()) {
    *first_bit = false;
    return 0;
  }
  *first_bit = (positions[0] == 0);
  size_t runs = (positions[0] == 0) ? 1 : 2;  // leading 0-run (if any) + 1-run
  for (size_t i = 1; i < positions.size(); ++i) {
    if (positions[i] == positions[i - 1] + 1) continue;  // same 1-run
    runs += 2;  // a 0-gap and the next 1-run
  }
  return runs;
}

// Appends the run lengths of `positions` (non-empty) to `*runs`.
void AppendRuns(const std::vector<uint32_t>& positions,
                std::vector<uint32_t>* runs) {
  if (positions[0] != 0) runs->push_back(positions[0]);  // leading 0-run
  uint32_t run_len = 1;
  for (size_t i = 1; i < positions.size(); ++i) {
    if (positions[i] == positions[i - 1] + 1) {
      ++run_len;
    } else {
      runs->push_back(run_len);                          // 1-run
      runs->push_back(positions[i] - positions[i - 1] - 1);  // 0-gap
      run_len = 1;
    }
  }
  runs->push_back(run_len);  // final 1-run; trailing zeros are implicit
}

// Appends the smaller encoding of non-empty sorted `positions` to
// `*payload` (run lengths unless `allow_positions` and the positions are
// strictly shorter); returns it and sets `*first_bit` (kRuns only). The
// one place the hybrid choice is made.
CompressedRow::Encoding AppendOptimal(const std::vector<uint32_t>& positions,
                                      bool allow_positions,
                                      std::vector<uint32_t>* payload,
                                      bool* first_bit) {
  size_t run_ints = CountRuns(positions, first_bit);
  if (allow_positions && positions.size() < run_ints) {
    *first_bit = false;
    payload->insert(payload->end(), positions.begin(), positions.end());
    return CompressedRow::Encoding::kPositions;
  }
  // AppendRuns never emits a leading 0-run of length 0; first_bit tells
  // the decoder whether the first run is a 1-run or a 0-run.
  AppendRuns(positions, payload);
  return CompressedRow::Encoding::kRuns;
}

}  // namespace

CompressedRow CompressedRow::EncodeOptimal(
    const std::vector<uint32_t>& positions, bool allow_positions) {
  CompressedRow row;
  EncodeOptimalInto(positions, allow_positions, &row);
  return row;
}

void CompressedRow::EncodeOptimalInto(const std::vector<uint32_t>& positions,
                                      bool allow_positions,
                                      CompressedRow* row) {
  assert(&positions != &row->payload_);
  row->ext_data_ = nullptr;
  row->ext_size_ = 0;
  if (positions.empty()) {
    row->encoding_ = Encoding::kEmpty;
    row->first_bit_ = false;
    row->count_ = 0;
    row->payload_.clear();
    return;
  }
  row->count_ = static_cast<uint32_t>(positions.size());
  row->payload_.clear();
  row->encoding_ = AppendOptimal(positions, allow_positions, &row->payload_,
                                 &row->first_bit_);
}

CompressedRow CompressedRow::FromBitvector(const Bitvector& bits) {
  return FromPositions(bits.SetBits());
}

CompressedRow CompressedRow::FromPositions(
    const std::vector<uint32_t>& positions) {
  assert(std::is_sorted(positions.begin(), positions.end()));
  return EncodeOptimal(positions, /*allow_positions=*/true);
}

CompressedRow CompressedRow::RleOnlyFromPositions(
    const std::vector<uint32_t>& positions) {
  assert(std::is_sorted(positions.begin(), positions.end()));
  return EncodeOptimal(positions, /*allow_positions=*/false);
}

CompressedRow CompressedRow::AppendEncoded(
    const std::vector<uint32_t>& positions, std::vector<uint32_t>* payload) {
  assert(!positions.empty());
  assert(std::is_sorted(positions.begin(), positions.end()));
  assert(payload->capacity() - payload->size() >= positions.size());
  const size_t offset = payload->size();
  bool first_bit = false;
  const Encoding encoding =
      AppendOptimal(positions, /*allow_positions=*/true, payload, &first_bit);
  return View(encoding, first_bit, static_cast<uint32_t>(positions.size()),
              payload->data() + offset,
              static_cast<uint32_t>(payload->size() - offset));
}

CompressedRow CompressedRow::View(Encoding encoding, bool first_bit,
                                  uint32_t count, const uint32_t* payload,
                                  uint32_t payload_words) {
  CompressedRow row;
  row.encoding_ = encoding;
  row.first_bit_ = first_bit;
  row.count_ = count;
  if (encoding == Encoding::kEmpty || payload_words == 0) {
    row.encoding_ = count == 0 ? Encoding::kEmpty : encoding;
    return row;
  }
  row.ext_data_ = payload;
  row.ext_size_ = payload_words;
  return row;
}

CompressedRow CompressedRow::Owned() const {
  CompressedRow row = *this;
  if (row.ext_data_ != nullptr) {
    row.payload_.assign(ext_data_, ext_data_ + ext_size_);
    row.ext_data_ = nullptr;
    row.ext_size_ = 0;
  }
  return row;
}

bool CompressedRow::Test(uint32_t pos) const {
  const uint32_t* pd = pdata();
  const size_t pn = psize();
  switch (encoding_) {
    case Encoding::kEmpty:
      return false;
    case Encoding::kPositions:
      return std::binary_search(pd, pd + pn, pos);
    case Encoding::kRuns: {
      uint32_t cur = 0;
      bool bit = first_bit_;
      for (size_t r = 0; r < pn; ++r) {
        uint32_t run = pd[r];
        if (pos < cur + run) return bit;
        cur += run;
        bit = !bit;
      }
      return false;  // trailing zeros
    }
  }
  return false;
}

void CompressedRow::OrInto(Bitvector* out) const {
  const uint32_t* pd = pdata();
  const size_t pn = psize();
  switch (encoding_) {
    case Encoding::kEmpty:
      return;
    case Encoding::kPositions:
      for (size_t i = 0; i < pn; ++i) out->Set(pd[i]);
      return;
    case Encoding::kRuns: {
      // Runs decode directly into whole words: a 1-run of length L costs
      // O(L/64), not L bit writes.
      uint64_t pos = 0;
      bool bit = first_bit_;
      for (size_t r = 0; r < pn; ++r) {
        uint32_t run = pd[r];
        if (bit) out->SetRange(pos, pos + run);
        pos += run;
        bit = !bit;
      }
      return;
    }
  }
}

void CompressedRow::AppendMaskedPositions(const Bitvector& mask,
                                          std::vector<uint32_t>* out) const {
  const uint32_t* pd = pdata();
  const size_t pn = psize();
  switch (encoding_) {
    case Encoding::kEmpty:
      return;
    case Encoding::kPositions:
      for (size_t i = 0; i < pn; ++i) {
        uint32_t p = pd[i];
        if (p < mask.size() && mask.Get(p)) out->push_back(p);
      }
      return;
    case Encoding::kRuns: {
      const uint64_t* words = mask.words().data();
      uint64_t pos = 0;
      bool bit = first_bit_;
      for (size_t r = 0; r < pn; ++r) {
        uint32_t run = pd[r];
        if (bit) {
          uint64_t end = std::min<uint64_t>(pos + run, mask.size());
          if (pos < end) bitops::AppendSetBitsInRange(words, pos, end, out);
        }
        pos += run;
        bit = !bit;
        if (pos >= mask.size()) return;  // everything further is dropped
      }
      return;
    }
  }
}

CompressedRow CompressedRow::AndWith(const Bitvector& mask) const {
  std::vector<uint32_t> kept;
  kept.reserve(count_);
  AppendMaskedPositions(mask, &kept);
  return FromPositions(kept);
}

void CompressedRow::AndWithInPlace(const Bitvector& mask,
                                   std::vector<uint32_t>* scratch) {
  std::vector<uint32_t> local;
  std::vector<uint32_t>* kept = scratch != nullptr ? scratch : &local;
  kept->clear();
  AppendMaskedPositions(mask, kept);
  if (kept->size() == count_) return;  // no bit dropped; encoding unchanged
  EncodeOptimalInto(*kept, /*allow_positions=*/true, this);
}

bool CompressedRow::IntersectsWith(const Bitvector& mask) const {
  const uint32_t* pd = pdata();
  const size_t pn = psize();
  switch (encoding_) {
    case Encoding::kEmpty:
      return false;
    case Encoding::kPositions: {
      for (size_t i = 0; i < pn; ++i) {
        uint32_t p = pd[i];
        if (p < mask.size() && mask.Get(p)) return true;
      }
      return false;
    }
    case Encoding::kRuns: {
      const uint64_t* words = mask.words().data();
      uint64_t pos = 0;
      bool bit = first_bit_;
      for (size_t r = 0; r < pn; ++r) {
        uint32_t run = pd[r];
        if (bit) {
          uint64_t end = std::min<uint64_t>(pos + run, mask.size());
          if (pos < end && bitops::AnyInRange(words, pos, end)) return true;
        }
        pos += run;
        bit = !bit;
        if (pos >= mask.size()) return false;
      }
      return false;
    }
  }
  return false;
}

void CompressedRow::IntersectSortedPositions(
    std::vector<uint32_t>* positions) const {
  switch (encoding_) {
    case Encoding::kEmpty:
      positions->clear();
      return;
    case Encoding::kPositions: {
      // In-place sorted intersection through the dispatched kernel; the
      // output cursor never passes the read cursor, so out == a is safe.
      size_t kept = bitops::IntersectSortedU32(
          positions->data(), positions->size(), pdata(), psize(),
          positions->data());
      positions->resize(kept);
      return;
    }
    case Encoding::kRuns: {
      const uint32_t* pd = pdata();
      const size_t pn = psize();
      size_t kept = 0, ri = 0;
      uint64_t run_end = pn == 0 ? 0 : pd[0];
      bool bit = first_bit_;
      for (uint32_t p : *positions) {
        while (ri < pn && run_end <= p) {
          ++ri;
          bit = !bit;
          if (ri < pn) run_end += pd[ri];
        }
        if (ri == pn) break;  // implicit trailing zeros
        if (bit) (*positions)[kept++] = p;
      }
      positions->resize(kept);
      return;
    }
  }
}

bool CompressedRow::IsSubsetOf(const Bitvector& mask) const {
  switch (encoding_) {
    case Encoding::kEmpty:
      return true;
    case Encoding::kPositions: {
      const uint32_t* pd = pdata();
      const size_t pn = psize();
      for (size_t i = 0; i < pn; ++i) {
        uint32_t p = pd[i];
        if (p >= mask.size() || !mask.Get(p)) return false;
      }
      return true;
    }
    case Encoding::kRuns: {
      const uint32_t* pd = pdata();
      const size_t pn = psize();
      const uint64_t* words = mask.words().data();
      uint64_t pos = 0;
      bool bit = first_bit_;
      for (size_t r = 0; r < pn; ++r) {
        uint32_t run = pd[r];
        if (bit) {
          if (pos + run > mask.size()) return false;  // bits past the mask
          if (!bitops::AllInRange(words, pos, pos + run)) return false;
        }
        pos += run;
        bit = !bit;
      }
      return true;
    }
  }
  return true;
}

void CompressedRow::AppendSetBits(std::vector<uint32_t>* out) const {
  ForEachSetBit([out](uint32_t p) { out->push_back(p); });
}

std::vector<uint32_t> CompressedRow::SetBits() const {
  std::vector<uint32_t> out;
  out.reserve(count_);
  AppendSetBits(&out);
  return out;
}

bool CompressedRow::operator==(const CompressedRow& other) const {
  // Canonical encodings: equal rows encode identically. Compared through
  // the payload span so views and owned rows with the same content match.
  return encoding_ == other.encoding_ && first_bit_ == other.first_bit_ &&
         count_ == other.count_ && psize() == other.psize() &&
         std::equal(pdata(), pdata() + psize(), other.pdata());
}

}  // namespace lbr
