#include "core/plan_cache.h"

namespace lbr {

PlanCache::PlanCache(size_t capacity, size_t num_shards)
    : capacity_(capacity > 0 ? capacity : 1) {
  if (num_shards < 1) num_shards = 1;
  // Capacities smaller than the stripe count would leave most stripes
  // permanently empty while blurring LRU order; collapse to one stripe
  // (also what pins eviction tests to exact single-list semantics).
  if (capacity_ / num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::shared_ptr<const CompiledPlan> PlanCache::GetOrCompile(
    const std::string& key, const Compiler& compile) {
  const uint64_t now = epoch();
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lk(shard.mu);

  auto serve_if_fresh =
      [&](std::unordered_map<std::string, Entry>::iterator it)
      -> std::shared_ptr<const CompiledPlan> {
    if (it->second.plan->epoch == now) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      return it->second.plan;
    }
    // Stale epoch: lazily evict and fall through to a recompile.
    shard.lru.erase(it->second.lru_it);
    shard.entries.erase(it);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    return nullptr;
  };

  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    if (auto plan = serve_if_fresh(it)) return plan;
  }

  // Single-flight: if another thread is compiling this shape, sleep until
  // its plan publishes and take it as a hit — one parse/rewrite/plan
  // serves every concurrent caller.
  bool waited = false;
  while (shard.loading.count(key) != 0) {
    waited = true;
    flight_waits_.fetch_add(1, std::memory_order_relaxed);
    shard.cv.wait(lk);
    auto again = shard.entries.find(key);
    if (again != shard.entries.end()) {
      if (auto plan = serve_if_fresh(again)) return plan;
      // Published but already stale: erased; re-check the in-flight set.
    }
  }
  if (waited) {
    // The in-flight compile failed (or its result was stale on arrival):
    // compile directly without claiming single-flight, so N waiters on a
    // failing shape don't serialize behind each other.
    misses_.fetch_add(1, std::memory_order_relaxed);
    lk.unlock();
    auto plan = compile();
    plan->epoch = now;
    return plan;
  }

  shard.loading.insert(key);
  misses_.fetch_add(1, std::memory_order_relaxed);
  lk.unlock();

  std::shared_ptr<CompiledPlan> plan;
  try {
    plan = compile();
  } catch (...) {
    // Wake waiters; they observe no entry and fall through to their own
    // compile. Nothing is cached — no poisoned entries.
    lk.lock();
    shard.loading.erase(key);
    shard.cv.notify_all();
    throw;
  }
  plan->epoch = now;

  lk.lock();
  shard.loading.erase(key);
  // A BumpEpoch during compilation makes this plan stale-on-arrival: hand
  // it to our caller (its skeleton was valid when planning started) but do
  // not publish it.
  if (now == epoch()) {
    shard.lru.push_front(key);
    shard.entries[key] = Entry{plan, shard.lru.begin()};
    entries_.fetch_add(1, std::memory_order_relaxed);
    EvictToCapacity(&shard);
  }
  shard.cv.notify_all();
  return plan;
}

void PlanCache::EvictOne(Shard* shard) {
  const std::string& victim = shard->lru.back();
  shard->entries.erase(victim);
  shard->lru.pop_back();
  entries_.fetch_sub(1, std::memory_order_relaxed);
}

void PlanCache::EvictToCapacity(Shard* shard) {
  // Capacity is global, eviction is LRU within a stripe: own tail first —
  // never the just-inserted MRU node — then other stripes via try-lock
  // (blocking while holding our own stripe could deadlock against a thread
  // evicting from the opposite side).
  while (entries_.load(std::memory_order_relaxed) > capacity_ &&
         shard->lru.size() > 1) {
    EvictOne(shard);
  }
  for (auto& other_ptr : shards_) {
    if (entries_.load(std::memory_order_relaxed) <= capacity_) return;
    Shard* other = other_ptr.get();
    if (other == shard) continue;
    std::unique_lock<std::mutex> other_lk(other->mu, std::try_to_lock);
    if (!other_lk.owns_lock()) continue;
    while (entries_.load(std::memory_order_relaxed) > capacity_ &&
           !other->lru.empty()) {
      EvictOne(other);
    }
  }
}

void PlanCache::Clear() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lk(shard->mu);
    entries_.fetch_sub(shard->entries.size(), std::memory_order_relaxed);
    shard->entries.clear();
    shard->lru.clear();
  }
}

}  // namespace lbr
