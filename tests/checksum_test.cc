#include "util/checksum.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace lbr {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Uniform(256));
  return out;
}

TEST(ChecksumTest, EveryOneByteChangeIsDetected) {
  // Every length through eight 32-byte blocks plus a tail, and every byte
  // offset, so each lane, each position inside a lane word, and each tail
  // step (word, half word, byte) is hit. A one-byte change lies inside one
  // word, which the construction always detects — no luck involved.
  std::vector<uint8_t> buf = RandomBytes(257, 7);
  for (size_t len = 0; len <= buf.size(); ++len) {
    const uint64_t base = Checksum64(buf.data(), len);
    for (size_t off = 0; off < len; ++off) {
      for (uint8_t mask : {0x01, 0x80, 0xff}) {
        buf[off] ^= mask;
        EXPECT_NE(Checksum64(buf.data(), len), base)
            << "len " << len << " offset " << off << " mask " << int{mask};
        buf[off] ^= mask;
      }
    }
  }
}

TEST(ChecksumTest, EveryTrailingCutIsDetected) {
  // All prefixes of one buffer checksum differently — also for all-zero
  // data, where only the length tells the prefixes apart.
  for (uint64_t seed : {0u, 11u}) {
    std::vector<uint8_t> buf =
        seed == 0 ? std::vector<uint8_t>(4096, 0) : RandomBytes(4096, seed);
    std::set<uint64_t> seen;
    for (size_t len = 0; len <= buf.size(); ++len) {
      EXPECT_TRUE(seen.insert(Checksum64(buf.data(), len)).second)
          << "prefix of " << len << " bytes collides (seed " << seed << ")";
    }
  }
}

TEST(ChecksumTest, IndependentOfAlignmentAndSeeded) {
  std::vector<uint8_t> buf = RandomBytes(300, 3);
  std::vector<uint8_t> shifted(buf.size() + 3);
  std::copy(buf.begin(), buf.end(), shifted.begin() + 3);
  for (size_t len : {0u, 5u, 31u, 32u, 33u, 100u, 300u}) {
    EXPECT_EQ(Checksum64(buf.data(), len), Checksum64(shifted.data() + 3, len))
        << len;
    EXPECT_NE(Checksum64(buf.data(), len, 0), Checksum64(buf.data(), len, 1))
        << len;
  }
}

TEST(ChecksumTest, PinnedValues) {
  // Snapshot files store these checksums: any change to the function must
  // come with a new snapshot format version (bitmat/snapshot_format.h).
  // Below 32 bytes the function is XXH64, so the first two are XXH64's own
  // published values for "" and "a".
  const std::string text = "Left Bit Right: SPARQL OPTIONAL over BitMats";
  EXPECT_EQ(Checksum64(nullptr, 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(Checksum64("a", 1), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(Checksum64(text.data(), text.size()), 0xa4b39892d519d97dull);
  EXPECT_EQ(Checksum64(text.data(), 7, 42), 0x8c0dde7b3fd935e3ull);
}

}  // namespace
}  // namespace lbr
