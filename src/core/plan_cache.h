#ifndef LBR_CORE_PLAN_CACHE_H_
#define LBR_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/goj.h"
#include "core/gosn.h"
#include "core/jvar_order.h"
#include "sparql/rewrite.h"
#include "util/lru_cache.h"

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
  /// Whether the plan's shape requires nullification + best-match (Lemma
  /// 3.4: a cyclic GoJ with a multi-jvar slave supernode). Structural —
  /// independent of constants and of engine options, hence cacheable and
  /// shareable; an engine that does not prune runs best-match regardless.
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
};

/// LRU cache of compiled plans keyed by query shape (DESIGN.md §10): an
/// entry-count capacity over the shared single-flight LRU, so one parse/
/// rewrite/plan serves every concurrent caller of a shape, and a failed
/// compile caches nothing (its waiters compile for themselves).
class PlanCache {
 public:
  /// `capacity`: maximum cached plans.
  explicit PlanCache(size_t capacity = 256)
      : lru_(capacity > 0 ? capacity : 1) {}

  using Compiler = std::function<std::shared_ptr<const CompiledPlan>()>;

  /// Returns the cached plan for `key`, or runs `compile` (single-flight),
  /// publishes, and returns its result. The compiler runs outside the
  /// cache's lock; its exceptions propagate to the calling thread only.
  std::shared_ptr<const CompiledPlan> GetOrCompile(const std::string& key,
                                                   const Compiler& compile) {
    return lru_.GetOrLoad(key, [&] { return Lru::Loaded{compile(), 1}; });
  }

  /// Drops everything immediately.
  void Clear() { lru_.Clear(); }

  uint64_t hits() const { return lru_.hits(); }
  uint64_t misses() const { return lru_.misses(); }
  uint64_t single_flight_waits() const { return lru_.single_flight_waits(); }
  size_t size() const { return lru_.size(); }

 private:
  using Lru = SingleFlightLru<CompiledPlan>;
  Lru lru_;
};

}  // namespace lbr

#endif  // LBR_CORE_PLAN_CACHE_H_
