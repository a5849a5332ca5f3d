#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
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
                   [&](uint32_t begin, uint32_t end, int) {
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
                   [&](uint32_t begin, uint32_t end, int) {
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
                   [&](uint32_t, uint32_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, InlinePoolRunsOnCaller) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  int chunks = 0;
  pool.ParallelFor(0, 100, 10, [&](uint32_t, uint32_t, int slot) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(slot, 0);
    ++chunks;
  });
  // No workers: the whole range is one inline chunk.
  EXPECT_EQ(chunks, 1);
}

TEST(ThreadPoolTest, SlotIndexesAreDistinctPerThread) {
  // The batch driver keeps one engine per slot, so a slot index must never
  // be shared by two threads, and the caller is always the last slot.
  ThreadPool pool(4);
  std::mutex mu;
  std::map<int, std::set<std::thread::id>> threads_of_slot;
  pool.ParallelFor(0, 4096, 16, [&](uint32_t, uint32_t, int slot) {
    std::lock_guard<std::mutex> lk(mu);
    threads_of_slot[slot].insert(std::this_thread::get_id());
  });
  std::set<std::thread::id> seen;
  for (const auto& [slot, ids] : threads_of_slot) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, pool.num_slots());
    EXPECT_EQ(ids.size(), 1u) << "slot " << slot;
    EXPECT_TRUE(seen.insert(*ids.begin()).second) << "slot " << slot;
    if (slot == pool.num_workers()) {
      EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
    }
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 1000, 1,
                       [&](uint32_t begin, uint32_t, int) {
                         if (begin == 500) {
                           throw std::runtime_error("chunk failure");
                         }
                       }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 100, 10,
                   [&](uint32_t b, uint32_t e, int) {
                     count.fetch_add(static_cast<int>(e - b));
                   });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ReusableAcrossManyCollectives) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, 256, 16,
                     [&](uint32_t b, uint32_t e, int) {
                       count.fetch_add(static_cast<int>(e - b));
                     });
    ASSERT_EQ(count.load(), 256) << "round " << round;
  }
}

}  // namespace
}  // namespace lbr
