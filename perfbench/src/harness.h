#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the end-to-end benchmark: command-line options, the
// order-independent result hash the correctness oracle compares, the span
// recorder of traced runs, sample statistics, and the metric report whose
// last line is the JSON object the benchmark contract asks for.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for generated N-Triples files and snapshots.
  std::string work_dir = ".";
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
  /// Self-check scale: tiny datasets, so every workload runs in seconds.
  bool tiny = false;
  /// Self-check: corrupt one expected hash; the run must then fail.
  bool break_oracle = false;
  /// Self-check: print digests of the generated inputs and exit.
  bool digest = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 --work-dir D
/// --trace-out F [--tiny] [--break-oracle] [--digest]`. Exits with code 2
/// on malformed arguments.
Options ParseOptions(int argc, char** argv);

/// Prints `msg` to stderr and exits with code 3, printing no result line.
[[noreturn]] void Fail(const std::string& msg);

/// splitmix64 finalizer.
uint64_t Mix(uint64_t x);
/// FNV-1a over bytes, chained from `h`.
uint64_t HashBytes(const std::string& bytes, uint64_t h = 1469598103934665603ull);

/// Order-independent hash of a decoded table's row multiset. Columns are
/// keyed by variable name, so engines that order the projection
/// differently hash equal; rows combine by addition, so duplicate rows
/// count (a multiset, not a set).
uint64_t TableHash(const lbr::ResultTable& table);

/// FNV-1a digest of a file's bytes (the self-check's dataset identity).
uint64_t FileDigest(const std::string& path);

// --- Sample statistics -------------------------------------------------------

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);
double GeoMean(const std::vector<double>& v);

// --- Spans of a traced run ---------------------------------------------------

/// In-memory span recorder. Times are microseconds since the recorder was
/// made. Spans of one query share its query id; a span's parent is the id
/// of the span that caused it (0 = none). Disabled recorders record
/// nothing and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }
  double NowUs() const;
  uint64_t NewQuery() { return ++last_query_; }
  /// Records a span; returns its id (0 when disabled).
  uint64_t Add(const char* name, uint64_t parent, uint64_t query,
               double start_us, double dur_us);
  /// Writes every span as Chrome trace-event JSON (loadable in Perfetto),
  /// with `context_json` under "otherData".
  void Write(const std::string& path, const std::string& context_json) const;

 private:
  struct Span {
    const char* name;
    uint64_t id, parent, query;
    double start_us, dur_us;
  };
  /// Spans kept for the trace file; later ones are counted, not kept
  /// (the per-layer metrics come from running totals, not from spans).
  static constexpr size_t kMaxSpans = 1 << 17;
  bool enabled_;
  int64_t origin_ns_;
  uint64_t last_query_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

// --- Process -----------------------------------------------------------------

/// Returns freed heap to the OS and restarts the kernel's peak-RSS counter,
/// so PeakRssMb() afterwards covers only what runs from here on.
void ResetPeakRss();
/// Peak resident set size (VmHWM) in MiB.
double PeakRssMb();

/// CPU time the calling process has used, over all its threads, in ms.
/// Unlike wall time it leaves out the time the kernel ran another task on
/// the process's CPU and, under a hypervisor with steal-time accounting
/// (Linux's PARAVIRT_TIME_ACCOUNTING), the time the VM's CPU was not run.
double CpuMs();

/// Moves the calling thread over the CPUs it may run on, one at a time.
/// On a shared host each core slows and recovers on its own, for seconds to
/// minutes, as its neighbours load it; a single-threaded client left on one
/// core measures that core's neighbours. Visiting every core in turn makes
/// a run's figures an average over all of them. The destructor restores
/// the original CPU set. Where the kernel refuses, Next() does nothing.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pins the calling thread to the next CPU of the original set.
  void Next();
  size_t cpus() const { return cpus_.size(); }
  /// The CPU the last Next() pinned to; -1 before that or when refused.
  int current() const { return current_; }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
  int current_ = -1;
};

// --- Report ------------------------------------------------------------------

/// Collects metrics and context. Print() writes one human-readable
/// `metric <name> <value> <unit>` line per metric, a `context {...}` line,
/// and last the contract's JSON object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Context(const std::string& key, const std::string& json_value);
  void Note(const std::string& line) { notes_.push_back(line); }
  std::string ContextJson() const;
  void Print(uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> notes_;
};

/// JSON string literal for `s` (quotes and backslashes escaped).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
