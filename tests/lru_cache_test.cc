// The single-flight LRU behind the plan cache and the TP cache. The
// threaded cases run under the Debug-TSan CI leg.

#include "util/lru_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace lbr {
namespace {

using Lru = SingleFlightLru<std::string>;

Lru::Loaded Value(const std::string& text, uint64_t cost) {
  return Lru::Loaded{std::make_shared<const std::string>(text), cost};
}

/// Spins until `done()` holds; a test that never gets there times out.
template <typename Done>
void AwaitTrue(const Done& done) {
  while (!done()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(SingleFlightLruTest, ConcurrentCallersOfOneKeyLoadOnce) {
  constexpr int kThreads = 8;
  Lru lru(100);
  std::atomic<int> loads{0};
  std::vector<Lru::Ptr> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t] = lru.GetOrLoad("k", [&] {
        loads.fetch_add(1);
        // Hold the load until every other caller sleeps behind it.
        AwaitTrue([&] { return lru.single_flight_waits() == kThreads - 1; });
        return Value("v", 1);
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ(lru.misses(), 1u);
  EXPECT_EQ(lru.hits(), static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(lru.size(), 1u);
  for (const Lru::Ptr& p : got) EXPECT_EQ(p.get(), got[0].get());
}

TEST(SingleFlightLruTest, FailedLoadCachesNothingAndWaitersLoadForThemselves) {
  constexpr int kThreads = 6;
  std::atomic<int> released{0};
  Lru lru(100, [&](const std::string&) { released.fetch_add(1); });
  std::atomic<int> loads{0};
  std::atomic<int> failures{0};
  std::vector<Lru::Ptr> got(kThreads);
  auto load = [&] {
    if (loads.fetch_add(1) == 0) {
      // The claimer fails once every other caller is waiting on it.
      AwaitTrue([&] { return lru.single_flight_waits() == kThreads - 1; });
      throw std::runtime_error("load failed");
    }
    return Value("v", 1);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        got[t] = lru.GetOrLoad("k", load);
      } catch (const std::runtime_error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(loads.load(), kThreads);  // every waiter loaded for itself
  EXPECT_EQ(lru.size(), 0u);          // and cached nothing
  EXPECT_EQ(lru.hits(), 0u);
  EXPECT_EQ(lru.misses(), static_cast<uint64_t>(kThreads));
  // Every value a loader returned reached the eviction callback once.
  EXPECT_EQ(released.load(), kThreads - 1);
  for (const Lru::Ptr& p : got) {
    if (p != nullptr) {
      EXPECT_EQ(*p, "v");
    }
  }

  // No key is left marked in flight: the next caller loads and publishes.
  lru.GetOrLoad("k", [&] { return Value("w", 1); });
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(*lru.Find("k"), "w");
}

TEST(SingleFlightLruTest, OverBudgetValueIsReturnedButNotKept) {
  std::vector<std::string> released;
  Lru lru(5, [&](const std::string& v) { released.push_back(v); });
  Lru::Ptr big = lru.GetOrLoad("big", [] { return Value("big", 6); });
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(*big, "big");
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.held(), 0u);
  EXPECT_EQ(released, std::vector<std::string>{"big"});
  lru.GetOrLoad("big", [] { return Value("big", 6); });
  EXPECT_EQ(lru.misses(), 2u);
}

TEST(SingleFlightLruTest, EvictsLruTailByCostAndKeepsTheNewEntry) {
  std::vector<std::string> released;
  Lru lru(10, [&](const std::string& v) { released.push_back(v); });
  lru.GetOrLoad("a", [] { return Value("a", 4); });
  lru.GetOrLoad("b", [] { return Value("b", 4); });
  ASSERT_NE(lru.Find("a"), nullptr);  // a is now the most recently used
  // 4 + 4 + 5 > 10: the tail (b) goes, and that is enough.
  lru.GetOrLoad("c", [] { return Value("c", 5); });
  EXPECT_EQ(released, std::vector<std::string>{"b"});
  EXPECT_EQ(lru.held(), 9u);
  EXPECT_EQ(lru.Find("b"), nullptr);
  // An entry that costs the whole budget evicts every other entry, never
  // itself.
  lru.GetOrLoad("d", [] { return Value("d", 10); });
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.held(), 10u);
  ASSERT_NE(lru.Find("d"), nullptr);
  EXPECT_EQ(released, (std::vector<std::string>{"b", "a", "c"}));
}

TEST(SingleFlightLruTest, FindNeverLoads) {
  Lru lru(10);
  EXPECT_EQ(lru.Find("k"), nullptr);
  EXPECT_EQ(lru.misses(), 1u);
  EXPECT_EQ(lru.size(), 0u);
  lru.GetOrLoad("k", [] { return Value("v", 1); });
  ASSERT_NE(lru.Find("k"), nullptr);
  EXPECT_EQ(lru.hits(), 1u);
}

TEST(SingleFlightLruTest, TryEvictWhileEvictsFromTheTail) {
  Lru lru(100);
  for (const char* key : {"a", "b", "c"}) {
    lru.GetOrLoad(key, [&] { return Value(key, 1); });
  }
  std::vector<Lru::Ptr> evicted =
      lru.TryEvictWhile([&] { return lru.held() > 1; });
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(*evicted[0], "a");
  EXPECT_EQ(*evicted[1], "b");
  EXPECT_EQ(lru.size(), 1u);
}

TEST(SingleFlightLruTest, TryEvictWhileSkipsWhenTheLockIsHeld) {
  // The eviction callback runs under the lock, so a Clear parked inside it
  // holds the lock for as long as the test wants.
  std::mutex mu;
  std::condition_variable cv;
  bool inside = false, release = false;
  Lru lru(100, [&](const std::string&) {
    std::unique_lock<std::mutex> lk(mu);
    inside = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  });
  lru.GetOrLoad("a", [] { return Value("a", 1); });
  lru.GetOrLoad("b", [] { return Value("b", 1); });
  std::thread clearer([&] { lru.Clear(); });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return inside; });
  }
  EXPECT_TRUE(lru.TryEvictWhile([] { return true; }).empty());
  EXPECT_EQ(lru.size(), 2u);
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  clearer.join();
  EXPECT_EQ(lru.size(), 0u);
}

TEST(SingleFlightLruTest, ClearDropsEverything) {
  std::vector<std::string> released;
  Lru lru(100, [&](const std::string& v) { released.push_back(v); });
  lru.GetOrLoad("a", [] { return Value("a", 2); });
  lru.GetOrLoad("b", [] { return Value("b", 3); });
  lru.Clear();
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.held(), 0u);
  EXPECT_EQ(released.size(), 2u);
  EXPECT_EQ(lru.Find("a"), nullptr);
  int loads = 0;
  lru.GetOrLoad("a", [&] {
    ++loads;
    return Value("a", 2);
  });
  EXPECT_EQ(loads, 1);
}

}  // namespace
}  // namespace lbr
