#include "util/rng.h"

#include <cmath>

namespace lbr {

uint64_t Rng::Zipf(uint64_t n, double theta) {
  if (n <= 1) return 0;
  // Inverse-CDF approximation of a Zipf(theta) distribution over n ranks.
  // Accurate enough for workload skew; not used where exact Zipf matters.
  double u = NextDouble();
  // u^(1/(1-theta)) concentrates mass near 0 for theta close to 1, making
  // rank 0 the most popular.
  double p = std::pow(u, 1.0 / (1.0 - theta));
  uint64_t r = static_cast<uint64_t>(static_cast<double>(n) * p);
  if (r >= n) r = n - 1;
  return r;
}

}  // namespace lbr
