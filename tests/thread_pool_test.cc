#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lbr {
namespace {

TEST(ThreadPoolTest, SlotsAndWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_slots(), 4);
  EXPECT_EQ(pool.num_workers(), 3);
  ThreadPool inline_pool(1);
  EXPECT_EQ(inline_pool.num_slots(), 1);
  EXPECT_EQ(inline_pool.num_workers(), 0);
  ThreadPool clamped(0);
  EXPECT_EQ(clamped.num_slots(), 1);
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  constexpr uint32_t kN = 10000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(kN);
  pool.ParallelFor(0, kN, 64,
                   [&](uint32_t begin, uint32_t end, ExecContext*, int) {
                     for (uint32_t i = begin; i < end; ++i) {
                       touched[i].fetch_add(1);
                     }
                   });
  for (uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NonZeroBeginAndOddGrain) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(17, 1234, 7,
                   [&](uint32_t begin, uint32_t end, ExecContext*, int) {
                     uint64_t local = 0;
                     for (uint32_t i = begin; i < end; ++i) local += i;
                     sum.fetch_add(local);
                   });
  uint64_t expected = 0;
  for (uint32_t i = 17; i < 1234; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, 1,
                   [&](uint32_t, uint32_t, ExecContext*, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, InlinePoolRunsOnCallerWithCallerContext) {
  ThreadPool pool(1);
  ExecContext my_ctx;
  std::thread::id caller = std::this_thread::get_id();
  int chunks = 0;
  pool.ParallelFor(
      0, 100, 10,
      [&](uint32_t, uint32_t, ExecContext* ctx, int slot) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(ctx, &my_ctx);
        EXPECT_EQ(slot, 0);
        ++chunks;
      },
      &my_ctx);
  // No workers: the whole range is one inline chunk.
  EXPECT_EQ(chunks, 1);
}

TEST(ThreadPoolTest, SlotContextsAreDistinct) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<ExecContext*> seen;
  pool.ParallelFor(0, 4096, 64,
                   [&](uint32_t, uint32_t, ExecContext* ctx, int) {
                     ASSERT_NE(ctx, nullptr);
                     std::lock_guard<std::mutex> lk(mu);
                     seen.push_back(ctx);
                   });
  // Every chunk got an arena, and arenas from different slots differ: the
  // number of distinct arenas is the number of participating slots.
  std::sort(seen.begin(), seen.end());
  size_t distinct =
      std::unique(seen.begin(), seen.end()) - seen.begin();
  EXPECT_GE(distinct, 1u);
  EXPECT_LE(distinct, static_cast<size_t>(pool.num_slots()));
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(0, 8, 1,
                   [&](uint32_t, uint32_t, ExecContext*, int) {
                     EXPECT_TRUE(ThreadPool::InParallelRegion());
                     // Nested collective: must not deadlock; runs inline.
                     pool.ParallelFor(
                         0, 10, 1,
                         [&](uint32_t b, uint32_t e, ExecContext*, int) {
                           inner_total.fetch_add(static_cast<int>(e - b));
                         });
                   });
  EXPECT_EQ(inner_total.load(), 80);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 1000, 1,
                       [&](uint32_t begin, uint32_t, ExecContext*, int) {
                         if (begin == 500) {
                           throw std::runtime_error("chunk failure");
                         }
                       }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 100, 10,
                   [&](uint32_t b, uint32_t e, ExecContext*, int) {
                     count.fetch_add(static_cast<int>(e - b));
                   });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, CallerQueryControlReachesWorkerChunks) {
  // ParallelFor mirrors the caller's QueryControl onto the worker arenas
  // for one collective and clears it afterwards (DESIGN.md §9).
  ThreadPool pool(4);
  const int caller_slot = pool.num_workers();

  // Already cancelled before the collective: the per-chunk pre-check
  // aborts every chunk before its body runs, on workers and caller alike.
  {
    QueryControl control;
    control.Cancel();
    ExecContext caller;
    caller.SetQueryControl(&control);
    std::atomic<int> bodies{0};
    EXPECT_THROW(pool.ParallelFor(0, 64, 1,
                                  [&](uint32_t, uint32_t, ExecContext*, int) {
                                    bodies.fetch_add(1);
                                  },
                                  &caller),
                 QueryAbortedError);
    EXPECT_EQ(bodies.load(), 0);
  }

  // Cancelled by a worker chunk mid-collective: every chunk body sees the
  // caller's control, and the worker's CheckCancelNow() throw reaches the
  // caller. Caller-slot chunks hold their slot until a worker chunk has
  // run, so the throw always comes from a worker.
  for (int round = 0; round < 20; ++round) {
    QueryControl control;
    ExecContext caller;
    caller.SetQueryControl(&control);
    std::atomic<int> worker_chunks{0};
    std::atomic<int> foreign_controls{0};
    try {
      pool.ParallelFor(
          0, 64, 1,
          [&](uint32_t, uint32_t, ExecContext* ctx, int slot) {
            if (ctx->query_control() != &control) foreign_controls.fetch_add(1);
            if (slot == caller_slot) {
              while (worker_chunks.load() == 0) std::this_thread::yield();
              return;
            }
            worker_chunks.fetch_add(1);
            control.Cancel();
            ctx->CheckCancelNow();
          },
          &caller);
      ADD_FAILURE() << "no QueryAbortedError, round " << round;
    } catch (const QueryAbortedError& e) {
      EXPECT_EQ(e.code(), QueryTermination::kCancelled);
    }
    EXPECT_GE(worker_chunks.load(), 1) << "round " << round;
    EXPECT_EQ(foreign_controls.load(), 0) << "round " << round;
  }

  // Afterwards the worker arenas carry no control: a collective without
  // one runs to completion, and its worker chunks see a null control.
  std::atomic<int> worker_chunks{0};
  std::atomic<int> stale_controls{0};
  std::atomic<int> count{0};
  pool.ParallelFor(0, 64, 1,
                   [&](uint32_t b, uint32_t e, ExecContext* ctx, int slot) {
                     if (slot == caller_slot) {
                       while (worker_chunks.load() == 0) {
                         std::this_thread::yield();
                       }
                     } else {
                       worker_chunks.fetch_add(1);
                       if (ctx->query_control() != nullptr) {
                         stale_controls.fetch_add(1);
                       }
                     }
                     count.fetch_add(static_cast<int>(e - b));
                   });
  EXPECT_EQ(count.load(), 64);
  EXPECT_GE(worker_chunks.load(), 1);
  EXPECT_EQ(stale_controls.load(), 0);
}

TEST(ThreadPoolTest, ReusableAcrossManyCollectives) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, 256, 16,
                     [&](uint32_t b, uint32_t e, ExecContext*, int) {
                       count.fetch_add(static_cast<int>(e - b));
                     });
    ASSERT_EQ(count.load(), 256) << "round " << round;
  }
}

}  // namespace
}  // namespace lbr
