#include "util/thread_pool.h"

#include <algorithm>

#include "util/fault_injection.h"

namespace lbr {

ThreadPool::ThreadPool(int num_threads) {
  int workers = std::max(1, num_threads) - 1;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
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

void ThreadPool::RunChunks(const ChunkFn& fn, int slot) {
  for (;;) {
    uint64_t b = next_.fetch_add(job_grain_, std::memory_order_relaxed);
    if (b >= job_end_) break;
    uint32_t begin = static_cast<uint32_t>(b);
    uint32_t end = static_cast<uint32_t>(std::min<uint64_t>(
        job_end_, b + job_grain_));
    try {
      // Dispatch fault site: fires before the chunk body runs, so a retry
      // (nothing partial has executed) just re-checks the trigger after
      // backoff. Exhaustion propagates through job_error_ like any chunk
      // exception.
      RetryTransient([] {
        FaultRegistry::Instance().MaybeInject(FaultSiteId::kThreadPoolDispatch);
      });
      fn(begin, end, slot);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (job_error_ == nullptr) job_error_ = std::current_exception();
      // Abandon the rest of the range; in-flight chunks finish naturally.
      next_.store(job_end_, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::WorkerLoop(int slot) {
  uint64_t last_epoch = 0;
  for (;;) {
    const ChunkFn* fn;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk,
                    [&] { return stop_ || job_epoch_ != last_epoch; });
      if (stop_) return;
      last_epoch = job_epoch_;
      fn = job_fn_;
    }
    RunChunks(*fn, slot);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--workers_remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(uint32_t begin, uint32_t end, uint32_t grain,
                             const ChunkFn& fn) {
  if (begin >= end) return;
  grain = std::max<uint32_t>(1, grain);
  // Inline when there is nothing to fan out to or the range is one chunk.
  if (num_workers() == 0 || static_cast<uint64_t>(end) - begin <= grain) {
    fn(begin, end, num_workers());
    return;
  }

  std::lock_guard<std::mutex> collective(collective_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
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
  RunChunks(fn, num_workers());

  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return workers_remaining_ == 0; });
  job_fn_ = nullptr;
  if (job_error_ != nullptr) std::rethrow_exception(job_error_);
}

}  // namespace lbr
