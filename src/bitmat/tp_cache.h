#ifndef LBR_BITMAT_TP_CACHE_H_
#define LBR_BITMAT_TP_CACHE_H_

#include <cstdint>
#include <string>

#include "bitmat/tp_loader.h"
#include "util/exec_context.h"
#include "util/lru_cache.h"
#include "util/query_control.h"

namespace lbr {

/// LRU cache of unmasked per-TP BitMats, keyed by the pattern text plus
/// the chosen orientation, safe for concurrent engines.
///
/// The paper's conclusion names "better cache management especially for
/// short running queries" as future work: for such queries, T_init (loading
/// the TP BitMats) dominates T_total, and repeated queries reload identical
/// BitMats. This cache keeps recently loaded *unpruned* TP BitMats; the
/// engine re-applies active-pruning masks on a cached copy with Unfold,
/// which costs a fraction of a cold load.
///
/// It is an adapter over the shared single-flight LRU (util/lru_cache.h,
/// DESIGN.md §5): loads are single-flight per key, entries are immutable
/// `shared_ptr<const TpBitMat>`s, and the budget is the total triples (set
/// bits) held. Only maskless loads are inserted (masked loads are
/// query-specific).
///
/// Hits are copy-on-write snapshots (DESIGN.md §4), taken outside the
/// cache's lock: the returned TpBitMat shares the cached entry's row
/// handles, so a hit costs O(non-empty rows) refcount bumps instead of a
/// payload deep copy, and any later mutation of the snapshot (Unfold,
/// SetRow) clones only the rows it changes — the cached entry is never
/// altered, and never folded: engines fold only their own snapshots.
class TpCache {
 public:
  /// `triple_budget`: maximum total set bits held across cached BitMats.
  explicit TpCache(uint64_t triple_budget = 4u << 20);

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
  /// unmasked. A miss loads masked directly and inserts nothing. `ctx`
  /// provides pooled scratch for the masking, which runs outside the
  /// cache's lock.
  TpBitMat GetOrLoadMasked(const TripleIndex& index, const Dictionary& dict,
                           const TriplePattern& tp, bool prefer_subject_rows,
                           const ActiveMasks& masks,
                           ExecContext* ctx = nullptr);

  /// Drops everything (e.g. after the index changes). Loads in flight when
  /// Clear runs may still insert afterwards.
  void Clear() { lru_.Clear(); }

  /// Joins the snapshot tier's global memory accounting (DESIGN.md §11):
  /// every published entry charges its approximate heap bytes to `meter`
  /// (not owned, must outlive the cache; shared with the mapped
  /// TripleIndex), and SpillToFit evicts LRU entries until the meter fits
  /// `budget_bytes`. Call before the cache holds entries.
  void SetMemoryAccounting(QueryControl* meter, uint64_t budget_bytes);

  /// Evicts LRU entries until the shared meter fits the byte budget or the
  /// cache is empty; evicts nothing when another thread holds the cache's
  /// lock (never blocking). Returns bytes released. The index's spill pass
  /// runs this first, so rebuildable cache entries go before mapped slices.
  uint64_t SpillToFit();

  uint64_t hits() const { return lru_.hits(); }
  uint64_t misses() const { return lru_.misses(); }
  uint64_t held_triples() const { return lru_.held(); }
  size_t size() const { return lru_.size(); }

  /// Contention observability for QueryStats / the batch driver:
  /// `lock_contention` counts acquisitions of the cache's lock that found
  /// it already held; `single_flight_waits` counts callers that slept
  /// waiting for another thread's in-flight load of their key.
  uint64_t lock_contention() const { return lru_.lock_contention(); }
  uint64_t single_flight_waits() const { return lru_.single_flight_waits(); }

 private:
  /// Snapshot-tier accounting (null = not wired): entries charge `meter_`
  /// when loaded and release it when the cache lets go of them.
  QueryControl* meter_ = nullptr;
  uint64_t byte_budget_ = 0;
  SingleFlightLru<TpBitMat> lru_;
};

}  // namespace lbr

#endif  // LBR_BITMAT_TP_CACHE_H_
