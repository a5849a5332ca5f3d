#ifndef PERFBENCH_DUET_H_
#define PERFBENCH_DUET_H_

// Runs the reference engine (ref_engine.h) beside the engine under test.
//
// On a shared host the speed of a core drifts by up to half over minutes,
// with its neighbours' load, and no run is long enough to average that
// out. Timing every round of queries on both engines, one right after the
// other, gives the host's speed at that moment: the reference's time for
// the round. The engine's times are then reported at the reference's
// nominal speed. The reference never changes, so a change to the engine
// moves the figures and the host does not.
//
// The reference lives in a child process, so its databases stay out of
// the benchmark's memory figures. Parent and child never run at once: the
// parent sends a round and waits for its time.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct DuetOptions {
  /// One reference database per N-Triples file.
  std::vector<std::string> nt_paths;
  /// What rounds name by index: a database index and a query text.
  std::vector<std::pair<size_t, std::string>> queries;
  /// Where set-up repeats save a snapshot; empty: they save none.
  std::string snapshot_path;
  /// 0: a round runs its queries one by one on the heap databases, which
  /// the child first warms with every query once. Otherwise a round is one
  /// ExecuteBatch call on database 0 deployed as RefEngine::ServeSnapshot
  /// deploys it, with this many runners, warmed with every query once.
  int batch_runners = 0;
  uint64_t budget_divisor = 4;
};

/// A request's time on the reference: wall time, and the CPU time of the
/// reference's process (CpuMs()).
struct RefTime {
  double wall_ms = 0;
  double cpu_ms = 0;
};

class Duet {
 public:
  /// Forks the child, which builds the reference databases. Call before
  /// the process makes any thread.
  explicit Duet(const DuetOptions& options);
  /// Stop()s the child.
  ~Duet();
  Duet(const Duet&) = delete;
  Duet& operator=(const Duet&) = delete;

  /// Runs queries[i] for each i of `round` on the reference, pinned to
  /// `cpu` (-1: anywhere); returns the time it took.
  RefTime RunRound(int cpu, const std::vector<uint32_t>& round);

  /// Repeats the reference's set-up (RefEngine::Rebuild) pinned to `cpu`;
  /// returns its wall time in seconds.
  double Setup(int cpu);

  /// Ends the child and waits for it. Also runs at exit, so a run that
  /// fails leaves no process behind.
  static void Stop();
};

}  // namespace perfbench

#endif  // PERFBENCH_DUET_H_
