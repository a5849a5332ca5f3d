#ifndef LBR_UTIL_LRU_CACHE_H_
#define LBR_UTIL_LRU_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace lbr {

/// A string-keyed LRU cache of immutable values, safe for concurrent
/// callers, with single-flight loading (DESIGN.md §5). Both the compiled-
/// plan cache and the TP BitMat cache are thin adapters over it.
///
///  - One mutex guards the LRU list, the key index and the in-flight set.
///    Values are `shared_ptr<const V>`: a caller holds what it was handed
///    after the lock is gone, and no one mutates a published value.
///  - Loads are single-flight per key: the first caller to miss marks the
///    key in flight and runs its loader outside the lock; concurrent
///    callers of the same key sleep until it lands and are served the
///    published value as hits. A loader that throws caches nothing; its
///    waiters wake and load for themselves, uncached, so N callers of a
///    failing or uncacheable key never queue behind each other.
///  - Every entry has a cost, and the total held is kept within a global
///    budget by evicting from the LRU tail, never the entry just inserted.
///    A value whose own cost exceeds the budget is returned but not kept.
///  - `on_evict` runs once for every value a loader returned, when the
///    cache lets go of it: evicted, cleared, or not kept at all. It runs
///    under the lock and must not call back into the cache.
///  - Counters are relaxed atomics, monotone from every observer's view.
template <typename V>
class SingleFlightLru {
 public:
  using Ptr = std::shared_ptr<const V>;
  /// A loader's result: the value and its cost against the budget.
  struct Loaded {
    Ptr value;
    uint64_t cost = 0;
  };
  using OnEvict = std::function<void(const V&)>;

  explicit SingleFlightLru(uint64_t budget, OnEvict on_evict = nullptr)
      : budget_(budget), on_evict_(std::move(on_evict)) {}

  /// Returns the cached value for `key`, or runs `load` (a callable
  /// returning Loaded) single-flight, publishes its value when it fits the
  /// budget, and returns it. `load` runs outside the lock; its exceptions
  /// propagate to the calling thread only.
  template <typename Load>
  Ptr GetOrLoad(const std::string& key, const Load& load) {
    std::unique_lock<std::mutex> lk = Lock();
    if (Ptr hit = TouchLocked(key)) return hit;
    if (loading_.count(key) != 0) {
      flight_waits_.fetch_add(1, std::memory_order_relaxed);
      cv_.wait(lk, [&] { return loading_.count(key) == 0; });
      if (Ptr hit = TouchLocked(key)) return hit;
      // The load we waited on published nothing (it threw, or its value
      // is over the budget): load without claiming the key.
      misses_.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      Loaded own = load();
      if (on_evict_) {
        lk.lock();
        on_evict_(*own.value);
      }
      return std::move(own.value);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    loading_.insert(key);
    lk.unlock();
    Loaded loaded;
    try {
      loaded = load();
    } catch (...) {
      lk.lock();
      loading_.erase(key);
      cv_.notify_all();
      throw;
    }
    lk.lock();
    loading_.erase(key);
    cv_.notify_all();  // waiters run once the lock is free, after the insert
    if (loaded.cost <= budget_) {
      InsertLocked(key, loaded);
    } else if (on_evict_) {
      on_evict_(*loaded.value);
    }
    return std::move(loaded.value);
  }

  /// Lookup only: the cached value (a hit, refreshed in the LRU) or null
  /// (a miss). Never loads, never waits for an in-flight load.
  Ptr Find(const std::string& key) {
    std::unique_lock<std::mutex> lk = Lock();
    Ptr hit = TouchLocked(key);
    if (hit == nullptr) misses_.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }

  /// One eviction pass that never blocks: when the lock is free, evicts
  /// from the LRU tail while `over()` holds and entries remain, and returns
  /// the evicted values (dropped by the caller, outside the lock); when
  /// another thread holds the lock, evicts nothing.
  template <typename Pred>
  std::vector<Ptr> TryEvictWhile(const Pred& over) {
    std::vector<Ptr> evicted;
    std::unique_lock<std::mutex> lk(mu_, std::try_to_lock);
    if (!lk.owns_lock()) return evicted;
    while (!lru_.empty() && over()) evicted.push_back(EvictTailLocked());
    return evicted;
  }

  /// Drops every entry. Loads in flight may still publish afterwards.
  void Clear() {
    std::unique_lock<std::mutex> lk = Lock();
    while (!lru_.empty()) EvictTailLocked();
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Callers that slept behind another caller's in-flight load.
  uint64_t single_flight_waits() const {
    return flight_waits_.load(std::memory_order_relaxed);
  }
  /// Lock acquisitions that found the lock already held.
  uint64_t lock_contention() const {
    return contention_.load(std::memory_order_relaxed);
  }
  /// Total cost of the entries held.
  uint64_t held() const { return held_.load(std::memory_order_relaxed); }
  size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  struct Node {
    std::string key;
    Ptr value;
    uint64_t cost = 0;
  };
  using List = std::list<Node>;  ///< front = most recently used

  std::unique_lock<std::mutex> Lock() {
    std::unique_lock<std::mutex> lk(mu_, std::try_to_lock);
    if (!lk.owns_lock()) {
      contention_.fetch_add(1, std::memory_order_relaxed);
      lk.lock();
    }
    return lk;
  }

  /// A hit: moves the entry to the LRU front and counts it. Null on a miss
  /// (not counted). Caller holds the lock.
  Ptr TouchLocked(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  void InsertLocked(const std::string& key, const Loaded& loaded) {
    lru_.push_front(Node{key, loaded.value, loaded.cost});
    index_.emplace(lru_.front().key, lru_.begin());
    size_.fetch_add(1, std::memory_order_relaxed);
    held_.fetch_add(loaded.cost, std::memory_order_relaxed);
    while (held_.load(std::memory_order_relaxed) > budget_ &&
           lru_.size() > 1) {
      EvictTailLocked();
    }
  }

  Ptr EvictTailLocked() {
    Node& victim = lru_.back();
    index_.erase(victim.key);  // the index's key views victim.key
    if (on_evict_) on_evict_(*victim.value);
    held_.fetch_sub(victim.cost, std::memory_order_relaxed);
    size_.fetch_sub(1, std::memory_order_relaxed);
    Ptr value = std::move(victim.value);
    lru_.pop_back();
    return value;
  }

  const uint64_t budget_;
  const OnEvict on_evict_;

  std::mutex mu_;
  std::condition_variable cv_;  ///< Signaled when an in-flight load ends.
  List lru_;
  std::unordered_map<std::string_view, typename List::iterator> index_;
  std::unordered_set<std::string> loading_;  ///< Keys with in-flight loads.

  std::atomic<uint64_t> held_{0};
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> flight_waits_{0};
  std::atomic<uint64_t> contention_{0};
};

}  // namespace lbr

#endif  // LBR_UTIL_LRU_CACHE_H_
