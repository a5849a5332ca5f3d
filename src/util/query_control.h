#ifndef LBR_UTIL_QUERY_CONTROL_H_
#define LBR_UTIL_QUERY_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace lbr {

/// Why a query's execution ended (the structured QueryOutcome codes).
/// kOk covers both complete runs and the paper's empty-absolute-master
/// shortcut (which is a *result*, not an abort — QueryStats keeps a
/// separate flag for it).
enum class QueryTermination : uint32_t {
  kOk = 0,
  kDeadlineExceeded = 1,  ///< The QueryControl deadline passed.
  kCancelled = 2,         ///< QueryControl::Cancel() was called.
  kMemoryExceeded = 3,    ///< A memory charge pushed usage over the budget.
  kOverloaded = 4,        ///< Admission control rejected the query.
  kError = 5,             ///< Any other failure (parse, unsupported, ...).
};

/// Stable lower-case name for logs / Explain / the shell.
const char* QueryTerminationName(QueryTermination t);

/// Structured end-of-query report: the termination code plus a
/// human-readable detail line. The zero value is a successful run.
struct QueryOutcome {
  QueryTermination code = QueryTermination::kOk;
  std::string message;
  bool ok() const { return code == QueryTermination::kOk; }
};

/// Thrown by the cooperative cancellation checks to unwind a query off the
/// engine's recursion/loops. Carries the termination code so catch sites
/// can build a QueryOutcome without string matching.
class QueryAbortedError : public std::runtime_error {
 public:
  QueryAbortedError(QueryTermination code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  QueryTermination code() const { return code_; }

 private:
  QueryTermination code_;
};

/// Per-query lifecycle control: deadline, cooperative cancel flag, and
/// memory budget, with a latched structured abort reason.
///
/// Contract (DESIGN.md §9):
///  - Configure (SetDeadline / SetTimeout / SetMemoryBudget) BEFORE handing
///    the control to Engine::Execute; configuration is not thread-safe.
///  - Cancel() is the one mid-flight mutation and may be called from any
///    thread, any number of times.
///  - The abort reason latches first-wins into an atomic: once a reason is
///    set it never changes, so every thread of a parallel query unwinds
///    with the same code.
///  - A control is single-use: memory accounting is cumulative and the
///    latch never resets. Create a fresh control per query.
///
/// The hot-path cost when attached is one relaxed atomic load per check
/// (ThrowIfAborted); the clock is only read on strided PollNow() calls.
class QueryControl {
 public:
  QueryControl() = default;
  QueryControl(const QueryControl&) = delete;
  QueryControl& operator=(const QueryControl&) = delete;

  /// Absolute deadline; PollNow() latches kDeadlineExceeded once past it.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  /// Deadline relative to now.
  void SetTimeout(std::chrono::milliseconds timeout) {
    SetDeadline(std::chrono::steady_clock::now() + timeout);
  }
  bool has_deadline() const { return has_deadline_; }

  /// Memory budget in (approximate) bytes; 0 = unlimited. A ChargeMemory
  /// that pushes usage past the budget throws QueryAbortedError.
  void SetMemoryBudget(uint64_t bytes) { mem_budget_ = bytes; }

  /// Latches kCancelled (first reason wins). Thread-safe; the running
  /// query observes it at its next cancellation check.
  void Cancel() { Latch(QueryTermination::kCancelled); }

  /// True once an abort reason is latched.
  bool aborted() const {
    return abort_code_.load(std::memory_order_relaxed) != 0;
  }
  QueryTermination abort_code() const {
    return static_cast<QueryTermination>(
        abort_code_.load(std::memory_order_relaxed));
  }

  /// The fast check: one relaxed load; throws QueryAbortedError with the
  /// latched code when aborted. Called at loop/block/recursion granularity.
  void ThrowIfAborted() const {
    if (abort_code_.load(std::memory_order_relaxed) != 0) ThrowAborted();
  }

  /// The slow check: reads the clock and latches kDeadlineExceeded when the
  /// deadline passed. Called on a stride (ExecContext::CheckCancel) so the
  /// clock stays off the per-iteration path.
  void PollNow();

  /// Accounts `bytes` against the budget (relaxed; approximate by design —
  /// DESIGN.md §9 lists the charge points). Throws QueryAbortedError once
  /// usage exceeds a non-zero budget. Safe from any thread.
  void ChargeMemory(uint64_t bytes);
  void ReleaseMemory(uint64_t bytes) {
    mem_used_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  uint64_t memory_used() const {
    return mem_used_.load(std::memory_order_relaxed);
  }
  uint64_t memory_peak() const {
    return mem_peak_.load(std::memory_order_relaxed);
  }
  uint64_t memory_budget() const { return mem_budget_; }

  /// The latched reason as a structured outcome (kOk when never aborted).
  QueryOutcome Outcome() const;

 private:
  /// First reason wins; later latches are no-ops.
  void Latch(QueryTermination code) {
    uint32_t expected = 0;
    abort_code_.compare_exchange_strong(expected,
                                        static_cast<uint32_t>(code),
                                        std::memory_order_relaxed);
  }
  [[noreturn]] void ThrowAborted() const;

  std::atomic<uint32_t> abort_code_{0};  ///< 0 = running; else the code.
  /// Deadline is set before execution starts and read-only afterwards; a
  /// query runs on one thread, which either configured the control or
  /// received it through a synchronizing handoff.
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  uint64_t mem_budget_ = 0;
  std::atomic<uint64_t> mem_used_{0};
  std::atomic<uint64_t> mem_peak_{0};
};

}  // namespace lbr

#endif  // LBR_UTIL_QUERY_CONTROL_H_
