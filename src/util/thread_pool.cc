#include "util/thread_pool.h"

#include <algorithm>

#include "util/fault_injection.h"

namespace lbr {

namespace {
/// Set while the current thread runs inside a ParallelFor chunk (of any
/// pool); nested collectives observe it and run inline.
thread_local bool tl_in_parallel_region = false;

struct ParallelRegionGuard {
  bool prev;
  ParallelRegionGuard() : prev(tl_in_parallel_region) {
    tl_in_parallel_region = true;
  }
  ~ParallelRegionGuard() { tl_in_parallel_region = prev; }
};
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  int slots = std::max(1, num_threads);
  contexts_.reserve(slots);
  for (int i = 0; i < slots; ++i) {
    contexts_.push_back(std::make_unique<ExecContext>());
  }
  workers_.reserve(slots - 1);
  for (int i = 0; i < slots - 1; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool ThreadPool::InParallelRegion() { return tl_in_parallel_region; }

void ThreadPool::RunChunks(const ChunkFn& fn, ExecContext* ctx, int slot) {
  ParallelRegionGuard region;
  for (;;) {
    uint64_t b = next_.fetch_add(job_grain_, std::memory_order_relaxed);
    if (b >= job_end_) break;
    uint32_t begin = static_cast<uint32_t>(b);
    uint32_t end = static_cast<uint32_t>(std::min<uint64_t>(
        job_end_, b + job_grain_));
    try {
      // Per-chunk cancellation check: an aborted query's remaining chunks
      // drain as first-exception captures instead of running to completion,
      // so a collective's abort latency is one chunk, not the whole range.
      if (ctx != nullptr) ctx->CheckCancel();
      // Dispatch fault site: fires before the chunk body runs, so a retry
      // (nothing partial has executed) just re-checks the trigger after
      // backoff. Exhaustion propagates through job_error_ like any chunk
      // exception.
      RetryTransient([] {
        FaultRegistry::Instance().MaybeInject(FaultSiteId::kThreadPoolDispatch);
      });
      fn(begin, end, ctx, slot);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (job_error_ == nullptr) job_error_ = std::current_exception();
      // Abandon the rest of the range; in-flight chunks finish naturally.
      next_.store(job_end_, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::WorkerLoop(int slot) {
  uint64_t seen_epoch = 0;
  for (;;) {
    const ChunkFn* fn;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk,
                    [&] { return stop_ || job_epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = job_epoch_;
      fn = job_fn_;
    }
    RunChunks(*fn, contexts_[slot].get(), slot);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--workers_remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(uint32_t begin, uint32_t end, uint32_t grain,
                             const ChunkFn& fn, ExecContext* caller_ctx) {
  if (begin >= end) return;
  grain = std::max<uint32_t>(1, grain);
  // Inline when there is nothing to fan out to, the range is one chunk
  // anyway, or we are already inside a collective (nesting would deadlock
  // on collective_mu_ and oversubscribe the machine).
  if (num_workers() == 0 || InParallelRegion() ||
      static_cast<uint64_t>(end) - begin <= grain) {
    ParallelRegionGuard region;
    fn(begin, end, caller_ctx, num_workers());
    return;
  }

  std::lock_guard<std::mutex> collective(collective_mu_);
  // Mirror the caller's query control onto the worker arenas for the
  // duration of this job, so chunks running on workers observe the same
  // deadline/cancel/budget state as the caller (DESIGN.md §9). The job
  // mutex publishes the stores to the workers.
  QueryControl* control =
      caller_ctx != nullptr ? caller_ctx->query_control() : nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (int w = 0; w < num_workers(); ++w) {
      contexts_[w]->SetQueryControl(control);
    }
    job_fn_ = &fn;
    job_error_ = nullptr;
    job_end_ = end;
    job_grain_ = grain;
    next_.store(begin, std::memory_order_relaxed);
    workers_remaining_ = num_workers();
    ++job_epoch_;
  }
  work_cv_.notify_all();

  // The calling thread is the last slot and drains chunks like any worker.
  RunChunks(fn, caller_ctx != nullptr ? caller_ctx : contexts_.back().get(),
            num_workers());

  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return workers_remaining_ == 0; });
  job_fn_ = nullptr;
  for (int w = 0; w < num_workers(); ++w) {
    contexts_[w]->SetQueryControl(nullptr);
  }
  if (job_error_ != nullptr) std::rethrow_exception(job_error_);
}

}  // namespace lbr
