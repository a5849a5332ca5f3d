#ifndef LBR_UTIL_RNG_H_
#define LBR_UTIL_RNG_H_

#include <cstdint>

namespace lbr {

/// Deterministic xorshift64* pseudo-random generator.
///
/// The workload generators (LUBM-like, UniProt-like, DBPedia-like) and the
/// property tests need reproducible randomness so that every run of a bench
/// or test sees the same data; std::mt19937 would also work but its
/// distributions are not guaranteed identical across standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull)
      : state_(seed ? seed : 0x9E3779B97F4A7C15ull) {}

  /// Next raw 64-bit value.
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1Dull;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  uint64_t Range(uint64_t lo, uint64_t hi) {
    return lo + Uniform(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli trial with success probability `p`.
  bool Chance(double p) { return NextDouble() < p; }

  /// Zipf-like skewed pick in [0, n): rank r is chosen with probability
  /// proportional to 1/(r+1)^theta. Used to mimic the skew of real RDF data
  /// (a few popular objects such as :NewYorkCity attract most triples).
  uint64_t Zipf(uint64_t n, double theta = 0.99);

 private:
  uint64_t state_;
};

}  // namespace lbr

#endif  // LBR_UTIL_RNG_H_
