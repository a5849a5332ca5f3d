#ifndef LBR_BITMAT_TP_CACHE_H_
#define LBR_BITMAT_TP_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bitmat/tp_loader.h"
#include "util/exec_context.h"
#include "util/query_control.h"

namespace lbr {

/// Sharded LRU cache of unmasked per-TP BitMats, keyed by the pattern text
/// plus the chosen orientation, safe for concurrent engines.
///
/// The paper's conclusion names "better cache management especially for
/// short running queries" as future work: for such queries, T_init (loading
/// the TP BitMats) dominates T_total, and repeated queries reload identical
/// BitMats. This cache keeps recently loaded *unpruned* TP BitMats; the
/// engine re-applies active-pruning masks on a cached copy with Unfold,
/// which costs a fraction of a cold load.
///
/// Concurrency model (DESIGN.md §5):
///  - Entries are striped across `num_shards` shards by the key's hash;
///    each shard has its own mutex, LRU list, and held-triple budget slice,
///    so N server threads sharing one warm cache only collide when they
///    touch the same stripe at the same instant.
///  - Loads are single-flight per key: the first thread to miss marks the
///    key in flight and loads outside the shard lock; concurrent callers of
///    the same key wait on the shard's condition variable and are served
///    the inserted entry as hits — one index scan, N snapshots.
///  - Hit/miss/contention counters are relaxed atomics: cheap, and
///    monotonically non-decreasing from any thread's point of view.
///  - Cached entries are immutable once published (their column-fold memo
///    is warmed *before* insertion), so handing out CoW snapshots under the
///    shard lock reads only frozen state.
///
/// Only maskless loads are inserted (masked loads are query-specific).
/// Budgeted by total triples (set bits) held — the budget is global (an
/// entry as large as the whole budget is still cacheable), while eviction
/// is LRU within a shard: the inserting shard evicts its own tail first,
/// then reclaims other shards' tails via try-lock (skipping any stripe
/// another thread holds; that stripe settles the debt on its next
/// insert).
///
/// Hits are copy-on-write snapshots (DESIGN.md §4): the returned TpBitMat
/// shares the cached entry's row handles, so a hit costs O(non-empty rows)
/// refcount bumps instead of a payload deep copy, and any later mutation of
/// the snapshot (Unfold, SetRow) clones only the rows it changes — the
/// cached entry is never altered.
class TpCache {
 public:
  /// `triple_budget`: maximum total set bits held across cached BitMats
  /// (global, enforced cooperatively across `num_shards` stripes). Tests
  /// that pin exact LRU behavior pass `num_shards = 1` to recover the
  /// single-list semantics; budgets smaller than the stripe count collapse
  /// to one stripe automatically.
  explicit TpCache(uint64_t triple_budget = 4u << 20, size_t num_shards = 8);

  /// Cache key for a TP + orientation.
  static std::string KeyFor(const TriplePattern& tp, bool prefer_subject_rows);

  /// Returns a CoW snapshot of the cached BitMat, or loads (unmasked),
  /// inserts, and returns it. The caller may Unfold/SetRow the snapshot
  /// freely — mutations clone only the touched rows, never the cached
  /// entry. Safe to call from any number of threads.
  TpBitMat GetOrLoad(const TripleIndex& index, const Dictionary& dict,
                     const TriplePattern& tp, bool prefer_subject_rows);

  /// Like GetOrLoad but applies active-pruning masks while copying out of
  /// the cache: rows the masks leave intact are shared by handle; only
  /// rows that lose bits are re-encoded. The cached entry itself stays
  /// unmasked. `ctx` provides pooled scratch for the masking, which runs
  /// on a private snapshot outside the shard lock.
  TpBitMat GetOrLoadMasked(const TripleIndex& index, const Dictionary& dict,
                           const TriplePattern& tp, bool prefer_subject_rows,
                           const ActiveMasks& masks,
                           ExecContext* ctx = nullptr);

  /// Drops everything (e.g. after the index changes). Loads in flight when
  /// Clear runs may still insert afterwards.
  void Clear();

  /// Joins the snapshot tier's global memory accounting (DESIGN.md §11):
  /// every published entry charges its approximate heap bytes to `meter`
  /// (not owned, must outlive the cache; shared with the mapped
  /// TripleIndex), and SpillToFit evicts LRU entries until the meter fits
  /// `budget_bytes`. Call before the cache holds entries.
  void SetMemoryAccounting(QueryControl* meter, uint64_t budget_bytes);

  /// Evicts LRU entries (coldest-stripe tails, try-lock, never blocking)
  /// until the shared meter fits the byte budget or the cache is empty.
  /// Returns bytes released. The index's spill pass runs this first, so
  /// rebuildable cache entries go before mapped slices.
  uint64_t SpillToFit();

  /// Entries evicted by SpillToFit (the budget-pressure counter surfaced
  /// in QueryStats / explain).
  uint64_t spill_evictions() const {
    return spill_evictions_.load(std::memory_order_relaxed);
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t held_triples() const {
    return held_.load(std::memory_order_relaxed);
  }
  size_t size() const { return entries_.load(std::memory_order_relaxed); }
  size_t num_shards() const { return shards_.size(); }

  /// Contention observability for QueryStats / the batch driver:
  /// `lock_contention` counts shard-mutex acquisitions that found the lock
  /// already held; `single_flight_waits` counts callers that slept waiting
  /// for another thread's in-flight load of their key.
  uint64_t lock_contention() const {
    return contention_.load(std::memory_order_relaxed);
  }
  uint64_t single_flight_waits() const {
    return flight_waits_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    TpBitMat mat;
    uint64_t cost = 0;   ///< Set bits at insertion (the budget unit).
    uint64_t bytes = 0;  ///< Approximate heap bytes (the meter's unit).
    std::list<std::string>::iterator lru_it;
  };

  struct Shard {
    std::mutex mu;
    std::condition_variable cv;         ///< Signaled when a load lands.
    std::list<std::string> lru;         ///< front = most recent
    std::unordered_map<std::string, Entry> entries;
    std::unordered_set<std::string> loading;  ///< Keys with in-flight loads.
    uint64_t held = 0;
  };

  Shard& ShardFor(const std::string& key) const;
  /// Locks a shard, counting the acquisition as contended when the lock
  /// was already held.
  std::unique_lock<std::mutex> LockShard(Shard* shard);
  /// Evicts LRU tails until the global held total fits the budget: first
  /// from `shard` (whose lock the caller holds), then from other stripes
  /// via try-lock (never blocking, so no lock-order deadlock).
  void EvictToBudget(Shard* shard);
  /// Drops `shard`'s LRU tail. Caller holds the shard lock.
  void EvictOne(Shard* shard);
  /// Loads `key` with single-flight semantics and publishes it into
  /// `shard`; returns the loaded (or concurrently inserted) snapshot.
  TpBitMat LoadAndPublish(Shard* shard, std::unique_lock<std::mutex> lk,
                          const std::string& key, const TripleIndex& index,
                          const Dictionary& dict, const TriplePattern& tp,
                          bool prefer_subject_rows);

  uint64_t budget_;
  /// Snapshot-tier accounting (null = not wired). `meter_` is charged and
  /// released under the owning shard's lock.
  QueryControl* meter_ = nullptr;
  uint64_t byte_budget_ = 0;
  std::atomic<uint64_t> spill_evictions_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> held_{0};
  std::atomic<size_t> entries_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> contention_{0};
  std::atomic<uint64_t> flight_waits_{0};
};

}  // namespace lbr

#endif  // LBR_BITMAT_TP_CACHE_H_
