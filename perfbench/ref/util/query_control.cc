#include "util/query_control.h"

#include "util/fault_injection.h"

namespace lbr {

const char* QueryTerminationName(QueryTermination t) {
  switch (t) {
    case QueryTermination::kOk:
      return "ok";
    case QueryTermination::kDeadlineExceeded:
      return "deadline_exceeded";
    case QueryTermination::kCancelled:
      return "cancelled";
    case QueryTermination::kMemoryExceeded:
      return "memory_exceeded";
    case QueryTermination::kOverloaded:
      return "overloaded";
    case QueryTermination::kError:
      return "error";
  }
  return "unknown";
}

void QueryControl::PollNow() {
  if (aborted()) return;
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    Latch(QueryTermination::kDeadlineExceeded);
  }
}

void QueryControl::ChargeMemory(uint64_t bytes) {
  // Injection happens before the fetch_add so a simulated accounting
  // failure never leaks charged bytes into mem_used_.
  FaultRegistry::Instance().MaybeInject(FaultSiteId::kQueryControlCharge);
  uint64_t used = mem_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  uint64_t peak = mem_peak_.load(std::memory_order_relaxed);
  while (used > peak &&
         !mem_peak_.compare_exchange_weak(peak, used,
                                          std::memory_order_relaxed)) {
  }
  if (mem_budget_ != 0 && used > mem_budget_) {
    Latch(QueryTermination::kMemoryExceeded);
    ThrowAborted();
  }
}

void QueryControl::ThrowAborted() const {
  QueryTermination code = abort_code();
  std::string what = "query aborted: ";
  what += QueryTerminationName(code);
  if (code == QueryTermination::kMemoryExceeded) {
    what += " (used ~" + std::to_string(memory_used()) + " of " +
            std::to_string(mem_budget_) + " budget bytes)";
  }
  throw QueryAbortedError(code, what);
}

QueryOutcome QueryControl::Outcome() const {
  QueryTermination code = abort_code();
  if (code == QueryTermination::kOk) return {};
  return {code, QueryTerminationName(code)};
}

}  // namespace lbr
