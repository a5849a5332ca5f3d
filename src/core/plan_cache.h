#ifndef LBR_CORE_PLAN_CACHE_H_
#define LBR_CORE_PLAN_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/goj.h"
#include "core/gosn.h"
#include "core/jvar_order.h"
#include "sparql/rewrite.h"

namespace lbr {

/// One parameterized term position inside a branch's TP list: rebinding
/// writes constants[slot] into tps[tp]'s subject (field 0), predicate (1),
/// or object (2).
struct TpSlotSite {
  int tp = 0;
  int field = 0;
  size_t slot = 0;
};

/// The plan of one UNF branch: everything ExecuteBranch used to derive per
/// query before touching BitMat payload. The Gosn here is in *template*
/// form — ground terms of parameterized positions are slot markers
/// (plan_shape.h). Only Terms carry constants, and they live exclusively
/// in gosn.tps() and gosn.filters(); everything else in the Gosn (and the
/// Goj/JvarOrder) is TP/variable structure, identical for every query of
/// the shape. A cache hit therefore rebinds by copying just the TP list
/// (writing constants through the precomputed `tp_slot_sites`) and, only
/// when `filters_have_slots`, the filter list — never the whole Gosn.
struct BranchPlan {
  Gosn gosn;
  Goj goj;
  JvarOrder order;
  /// Whether nullification + best-match is required (Section 5.3). A
  /// structural property of the GoSN/GoJ (prune setting, order strategy,
  /// cyclicity, multi-jvar slave supernodes) — independent of constants,
  /// hence cacheable.
  bool nb_reqd = false;
  /// False when Appendix B well-designedness violations were found (and
  /// converted) at plan time — surfaced into QueryStats on every execution.
  bool well_designed = true;
  /// Per-TP cardinality estimates the planner ordered by (parallel to
  /// gosn.tps()). Informational at execution time (initial_triples stat,
  /// TpState::estimated_count); computed from the compiling query's
  /// constants, so a cache hit reports the compile-time estimates.
  std::vector<uint64_t> estimated_cards;
  /// Chosen BitMat orientation per TP (parallel to gosn.tps()).
  std::vector<bool> prefer_subject_rows;
  /// TP ids in initialization order: masters first, then by ascending
  /// estimated cardinality within a master depth, so active-pruning masks
  /// from masters and small TPs exist before slaves and large TPs load.
  std::vector<int> load_order;
  /// Marker positions in gosn.tps(), precomputed at compile time so a hit
  /// rebinds by direct assignment instead of scanning every ground term.
  std::vector<TpSlotSite> tp_slot_sites;
  /// True iff some scoped filter contains a marker; hits then copy and
  /// rewrite the filter list, otherwise it is shared from the template.
  bool filters_have_slots = false;
};

/// A compiled query skeleton: the output of parse → rewrite → GoSN → GoJ →
/// jvar-order for one query *shape*, reused across all queries sharing the
/// shape. Immutable once published.
struct CompiledPlan {
  /// Effective projection (SELECT list, or sorted body vars for SELECT *).
  /// Variables are shape-preserved verbatim, so this never needs rebinding.
  std::vector<std::string> projection;
  std::vector<BranchPlan> branches;
  bool may_have_spurious = false;
  std::vector<UnfResult::Rule3Info> rule3;
  /// Number of constant slots the shape abstracts; rebinding supplies
  /// exactly this many terms.
  size_t num_slots = 0;
  /// PlanCache epoch at compile time; entries from older epochs are
  /// treated as misses (version-stamped invalidation).
  uint64_t epoch = 0;
};

/// Sharded LRU cache of compiled plans keyed by query shape, mirroring
/// TpCache's striped single-flight design (DESIGN.md §5, §10):
///  - entries stripe across shards by key hash; each shard has its own
///    mutex/cv/LRU list, so concurrent engines sharing a warm cache only
///    collide on the same stripe;
///  - compilation is single-flight per key: the first thread to miss marks
///    the key in flight and compiles outside the shard lock; concurrent
///    callers of the same shape wait and are served the published plan as
///    hits — one parse/rewrite/plan, N consumers;
///  - a failed compile clears the in-flight mark, wakes waiters (who fall
///    through to their own attempt), and caches nothing — no poisoned
///    entries;
///  - BumpEpoch() is the invalidation hook for future incremental updates:
///    it never blocks on shard locks; stale entries are lazily evicted on
///    next lookup.
class PlanCache {
 public:
  /// `capacity`: maximum cached plans (global across shards). Tests that
  /// pin exact LRU behavior pass `num_shards = 1`.
  explicit PlanCache(size_t capacity = 256, size_t num_shards = 8);

  using Compiler = std::function<std::shared_ptr<CompiledPlan>()>;

  /// Returns the cached plan for `key`, or runs `compile` (single-flight),
  /// publishes, and returns its result. The compiler runs outside shard
  /// locks; its exceptions propagate to the calling thread only. The
  /// returned plan is stamped with the epoch current at call entry.
  std::shared_ptr<const CompiledPlan> GetOrCompile(const std::string& key,
                                                   const Compiler& compile);

  /// Version-stamped invalidation: plans compiled before the bump are
  /// treated as misses and recompiled on next use. O(1); eviction of stale
  /// entries is lazy.
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Drops everything immediately.
  void Clear();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t single_flight_waits() const {
    return flight_waits_.load(std::memory_order_relaxed);
  }
  size_t size() const { return entries_.load(std::memory_order_relaxed); }
  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    std::shared_ptr<const CompiledPlan> plan;
    std::list<std::string>::iterator lru_it;
  };

  struct Shard {
    std::mutex mu;
    std::condition_variable cv;  ///< Signaled when a compile publishes/fails.
    std::list<std::string> lru;  ///< front = most recent
    std::unordered_map<std::string, Entry> entries;
    std::unordered_set<std::string> loading;  ///< Keys being compiled.
  };

  Shard& ShardFor(const std::string& key) const;
  /// Drops `shard`'s LRU tail. Caller holds the shard lock.
  void EvictOne(Shard* shard);
  /// Evicts until the global entry count fits capacity: own tail first,
  /// then other stripes via try-lock (never blocking).
  void EvictToCapacity(Shard* shard);

  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<size_t> entries_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> flight_waits_{0};
};

}  // namespace lbr

#endif  // LBR_CORE_PLAN_CACHE_H_
