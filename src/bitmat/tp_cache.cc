#include "bitmat/tp_cache.h"

#include <functional>
#include <stdexcept>

#include "util/fault_injection.h"

namespace lbr {

namespace {

// Re-derives the variable name of a cached dimension from its domain kind:
// the loader maps kSubject dims to the subject variable, kObject to the
// object variable, kPredicate to the predicate variable.
std::string VarForKind(const TriplePattern& tp, DomainKind kind) {
  switch (kind) {
    case DomainKind::kSubject:
      return tp.s.is_var ? tp.s.var : std::string();
    case DomainKind::kObject:
      return tp.o.is_var ? tp.o.var : std::string();
    case DomainKind::kPredicate:
      return tp.p.is_var ? tp.p.var : std::string();
    case DomainKind::kUnit:
      return std::string();
  }
  return std::string();
}

// A snapshot with the caller's variable names re-derived from the cached
// dimension kinds (the key normalizes names away). O(non-empty rows)
// handle bumps, no payload copy.
TpBitMat SnapshotFor(const TpBitMat& cached, const TriplePattern& tp) {
  TpBitMat copy = cached;
  copy.row_var = VarForKind(tp, copy.row_kind);
  copy.col_var = VarForKind(tp, copy.col_kind);
  return copy;
}

// Approximate heap bytes of a cached TpBitMat: the matrix's sparse row
// arrays, non-empty-row words and row objects (BitMat::HeapBytes) plus the
// payload its arena holds (ArenaBytes). Rows that are zero-copy views into
// a mapped snapshot own nothing and cost only their slot — exactly the
// marginal heap the entry pins, which is what the shared meter tracks.
uint64_t TpBitMatHeapBytes(const TpBitMat& t) {
  return sizeof(TpBitMat) + t.bm.HeapBytes() + t.bm.ArenaBytes();
}

}  // namespace

TpCache::TpCache(uint64_t triple_budget, size_t num_shards)
    : budget_(triple_budget) {
  if (num_shards < 1) num_shards = 1;
  // Degenerate tiny budgets hold so few entries that striping only blurs
  // the LRU order; collapse to one stripe (also what pins the legacy
  // eviction tests to exact single-list semantics).
  if (triple_budget / num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::string TpCache::KeyFor(const TriplePattern& tp,
                            bool prefer_subject_rows) {
  // Variable names do not affect the loaded bits, only the var<->dimension
  // mapping, which the caller re-derives; normalize them out of the key so
  // that (?a :p ?b) and (?x :p ?y) share an entry.
  auto norm = [](const PatternTerm& t, const char* placeholder) {
    return t.is_var ? std::string(placeholder) : t.term.ToString();
  };
  std::string key;
  key.reserve(64);
  key += norm(tp.s, "?s");
  key += '\x1f';
  key += norm(tp.p, "?p");
  key += '\x1f';
  key += norm(tp.o, "?o");
  key += '\x1f';
  // Same-variable TPs load a diagonal; they must not share entries with
  // distinct-variable TPs.
  key += (tp.s.is_var && tp.o.is_var && tp.s.var == tp.o.var) ? "diag"
                                                              : "full";
  key += '\x1f';
  key += prefer_subject_rows ? 'S' : 'O';
  return key;
}

TpCache::Shard& TpCache::ShardFor(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::unique_lock<std::mutex> TpCache::LockShard(Shard* shard) {
  std::unique_lock<std::mutex> lk(shard->mu, std::try_to_lock);
  if (!lk.owns_lock()) {
    contention_.fetch_add(1, std::memory_order_relaxed);
    lk.lock();
  }
  return lk;
}

TpBitMat TpCache::GetOrLoad(const TripleIndex& index, const Dictionary& dict,
                            const TriplePattern& tp,
                            bool prefer_subject_rows) {
  std::string key = KeyFor(tp, prefer_subject_rows);
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lk = LockShard(&shard);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    // O(1) LRU touch: relink the node, no allocation or string copy.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return SnapshotFor(it->second.mat, tp);
  }
  return LoadAndPublish(&shard, std::move(lk), key, index, dict, tp,
                        prefer_subject_rows);
}

TpBitMat TpCache::LoadAndPublish(Shard* shard,
                                 std::unique_lock<std::mutex> lk,
                                 const std::string& key,
                                 const TripleIndex& index,
                                 const Dictionary& dict,
                                 const TriplePattern& tp,
                                 bool prefer_subject_rows) {
  // Single-flight: if another thread is already loading this key, sleep
  // until its load lands and take the result as a hit — one index scan
  // serves every concurrent caller.
  bool waited = false;
  while (shard->loading.count(key) != 0) {
    waited = true;
    flight_waits_.fetch_add(1, std::memory_order_relaxed);
    shard->cv.wait(lk);
    auto it = shard->entries.find(key);
    if (it != shard->entries.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      shard->lru.splice(shard->lru.begin(), shard->lru, it->second.lru_it);
      return SnapshotFor(it->second.mat, tp);
    }
  }
  if (waited) {
    // The in-flight load completed but was not published (over budget, or
    // it threw): the key is evidently not cacheable right now, so load
    // directly without claiming single-flight — otherwise N waiters on a
    // hot uncacheable key would take turns doing N sequential index scans.
    misses_.fetch_add(1, std::memory_order_relaxed);
    lk.unlock();
    return LoadTpBitMat(index, dict, tp, prefer_subject_rows);
  }
  shard->loading.insert(key);
  misses_.fetch_add(1, std::memory_order_relaxed);
  lk.unlock();

  TpBitMat loaded;
  try {
    // Transient-fault boundary: an injected `tp_cache.load` fault is
    // retried with bounded backoff. Nothing partial escapes a failed
    // attempt — the load builds into a local.
    loaded = RetryTransient([&] {
      FaultRegistry::Instance().MaybeInject(FaultSiteId::kTpCacheLoad);
      TpBitMat fresh = LoadTpBitMat(index, dict, tp, prefer_subject_rows);
      // Warm the column-fold memo before publication: entries are frozen
      // once visible to other threads (even const folds write the memo),
      // and warm memos make every future snapshot's first fold a word copy.
      fresh.bm.MemoizeColFold();
      return fresh;
    });
  } catch (...) {
    lk.lock();
    shard->loading.erase(key);
    shard->cv.notify_all();
    throw;
  }

  uint64_t cost = loaded.bm.Count();
  uint64_t bytes = meter_ != nullptr ? TpBitMatHeapBytes(loaded) : 0;
  lk.lock();
  shard->loading.erase(key);
  if (cost <= budget_) {
    shard->lru.push_front(key);
    shard->entries[key] = Entry{loaded, cost, bytes, shard->lru.begin()};
    shard->held += cost;
    held_.fetch_add(cost, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    if (meter_ != nullptr) meter_->ChargeMemory(bytes);
    EvictToBudget(shard);
  }
  shard->cv.notify_all();
  return loaded;
}

TpBitMat TpCache::GetOrLoadMasked(const TripleIndex& index,
                                  const Dictionary& dict,
                                  const TriplePattern& tp,
                                  bool prefer_subject_rows,
                                  const ActiveMasks& masks,
                                  ExecContext* ctx) {
  if (masks.row_mask == nullptr && masks.col_mask == nullptr) {
    return GetOrLoad(index, dict, tp, prefer_subject_rows);
  }
  std::string key = KeyFor(tp, prefer_subject_rows);
  Shard& shard = ShardFor(key);
  TpBitMat snapshot;
  {
    std::unique_lock<std::mutex> lk = LockShard(&shard);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      // Miss: load masked directly (cheapest) and leave warming to
      // unmasked queries — a masked load is query-specific and never
      // inserted, so it takes no single-flight slot either.
      misses_.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      return LoadTpBitMat(index, dict, tp, prefer_subject_rows, masks, ctx);
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    // Take a plain CoW snapshot under the lock (O(non-empty rows) handle
    // bumps) and run the masking on it outside, keeping the stripe hot.
    snapshot = SnapshotFor(it->second.mat, tp);
  }

  TpBitMat out;
  out.row_kind = snapshot.row_kind;
  out.col_kind = snapshot.col_kind;
  out.row_var = snapshot.row_var;
  out.col_var = snapshot.col_var;
  out.bm = BitMat(snapshot.bm.num_rows(), snapshot.bm.num_cols());
  ScratchPositions scratch(ctx);
  snapshot.bm.ForEachRow([&](uint32_t r, const BitMat::RowHandle& row) {
    if (masks.row_mask != nullptr &&
        (r >= masks.row_mask->size() || !masks.row_mask->Get(r))) {
      return;
    }
    if (masks.col_mask == nullptr) {
      out.bm.SetRowShared(r, row);  // row survives whole: share the handle
    } else {
      SetRowMaskedShared(r, row, *masks.col_mask, scratch.get(), &out.bm);
    }
  });
  return out;
}

void TpCache::EvictOne(Shard* shard) {
  const std::string& victim = shard->lru.back();
  auto it = shard->entries.find(victim);
  shard->held -= it->second.cost;
  held_.fetch_sub(it->second.cost, std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  if (meter_ != nullptr) meter_->ReleaseMemory(it->second.bytes);
  shard->entries.erase(it);
  shard->lru.pop_back();
}

void TpCache::EvictToBudget(Shard* shard) {
  // The budget is global: drain this stripe's LRU tail first — but never
  // the just-inserted front node (admission guarantees it fits the budget
  // alone; evicting the MRU entry to protect stale entries elsewhere
  // would invert LRU) — then reclaim other stripes' tails. Other stripes
  // are only try-locked: blocking while holding our own stripe would
  // deadlock against a thread doing the same from the opposite side; a
  // stripe we skip settles the remaining debt on its own next insert.
  while (held_.load(std::memory_order_relaxed) > budget_ &&
         shard->lru.size() > 1) {
    EvictOne(shard);
  }
  for (auto& other_ptr : shards_) {
    if (held_.load(std::memory_order_relaxed) <= budget_) return;
    Shard* other = other_ptr.get();
    if (other == shard) continue;
    std::unique_lock<std::mutex> other_lk(other->mu, std::try_to_lock);
    if (!other_lk.owns_lock()) continue;
    while (held_.load(std::memory_order_relaxed) > budget_ &&
           !other->lru.empty()) {
      EvictOne(other);
    }
  }
}

void TpCache::Clear() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lk = LockShard(shard.get());
    held_.fetch_sub(shard->held, std::memory_order_relaxed);
    entries_.fetch_sub(shard->entries.size(), std::memory_order_relaxed);
    if (meter_ != nullptr) {
      for (const auto& [key, entry] : shard->entries) {
        (void)key;
        meter_->ReleaseMemory(entry.bytes);
      }
    }
    shard->held = 0;
    shard->entries.clear();
    shard->lru.clear();
  }
}

void TpCache::SetMemoryAccounting(QueryControl* meter,
                                  uint64_t budget_bytes) {
  meter_ = meter;
  byte_budget_ = budget_bytes;
}

uint64_t TpCache::SpillToFit() {
  if (meter_ == nullptr || byte_budget_ == 0) return 0;
  uint64_t released = 0;
  // Walk the stripes evicting LRU tails until the *shared* meter fits the
  // budget. Try-lock only: the caller may be the index's spill pass running
  // under memory pressure mid-query, and blocking on a stripe a loading
  // thread holds would stall the very query the spill serves.
  for (auto& shard_ptr : shards_) {
    if (meter_->memory_used() <= byte_budget_) break;
    Shard* shard = shard_ptr.get();
    std::unique_lock<std::mutex> lk(shard->mu, std::try_to_lock);
    if (!lk.owns_lock()) continue;
    while (meter_->memory_used() > byte_budget_ && !shard->lru.empty()) {
      auto it = shard->entries.find(shard->lru.back());
      released += it->second.bytes;
      EvictOne(shard);
      spill_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return released;
}

}  // namespace lbr
