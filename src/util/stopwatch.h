#ifndef LBR_UTIL_STOPWATCH_H_
#define LBR_UTIL_STOPWATCH_H_

#include <chrono>

namespace lbr {

/// Wall-clock stopwatch used to report the paper's T_init / T_prune /
/// T_total timings (Section 6.1, "Evaluation Metrics").
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace lbr

#endif  // LBR_UTIL_STOPWATCH_H_
