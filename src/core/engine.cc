#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/bestmatch.h"
#include "core/global_ids.h"
#include "core/goj.h"
#include "core/gosn.h"
#include "core/jvar_order.h"
#include "core/multiway_join.h"
#include "core/predicate_stats.h"
#include "core/prune.h"
#include "core/selectivity.h"
#include "core/tp_state.h"
#include "sparql/parser.h"
#include "sparql/plan_shape.h"
#include "sparql/rewrite.h"
#include "util/fault_injection.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace lbr {

namespace {

// Rejects joins between a predicate-position variable and an S/O-position
// variable (Section 5 limitation).
void ValidateVarPositions(const std::vector<TriplePattern>& tps) {
  std::map<std::string, uint8_t> positions;  // bit0 = S/O, bit1 = P
  for (const TriplePattern& tp : tps) {
    if (tp.s.is_var) positions[tp.s.var] |= 1;
    if (tp.o.is_var) positions[tp.o.var] |= 1;
    if (tp.p.is_var) positions[tp.p.var] |= 2;
  }
  for (const auto& [var, mask] : positions) {
    if (mask == 3) {
      throw UnsupportedQueryError(
          "variable ?" + var +
          " joins a predicate position with a subject/object position");
    }
  }
}

// Substitutes shape-marker constants (urn:lbr:param:N) with the query's
// concrete terms; non-marker terms pass through unchanged.
TriplePattern BindTp(const TriplePattern& tp,
                     const std::vector<Term>& constants) {
  TriplePattern out = tp;
  auto bind = [&constants](PatternTerm* t) {
    size_t slot = 0;
    if (!t->is_var && IsShapeParam(t->term, &slot) &&
        slot < constants.size()) {
      t->term = constants[slot];
    }
  };
  bind(&out.s);
  bind(&out.p);
  bind(&out.o);
  return out;
}

}  // namespace

struct Engine::BranchResult {
  std::vector<RawRow> rows;        // projected onto the query projection
  bool needs_best_match = false;   // within-branch flag (already applied)
};

Engine::Engine(const TripleIndex* index, const Dictionary* dict,
               EngineOptions options)
    : Engine(index, dict, options, nullptr) {}

Engine::~Engine() = default;

Engine::Engine(const TripleIndex* index, const Dictionary* dict,
               EngineOptions options, std::shared_ptr<TpCache> shared_cache)
    : index_(index),
      dict_(dict),
      options_(options),
      tp_cache_(shared_cache != nullptr
                    ? std::move(shared_cache)
                    : std::make_shared<TpCache>(options.tp_cache_budget,
                                                options.tp_cache_shards)),
      plan_cache_(options.plan_cache != nullptr
                      ? options.plan_cache
                      : std::make_shared<PlanCache>(
                            options.plan_cache_capacity,
                            options.plan_cache_shards)) {}

const PredicateStats& Engine::predicate_stats() {
  if (options_.predicate_stats != nullptr) return *options_.predicate_stats;
  if (own_stats_ == nullptr) {
    own_stats_ =
        std::make_unique<PredicateStats>(PredicateStats::Collect(*index_));
  }
  return *own_stats_;
}

BranchPlan Engine::PlanBranch(const Algebra& branch,
                              const std::vector<Term>* slot_constants,
                              QueryStats* stats) {
  BranchPlan plan;

  // --- GoSN / GoJ (Alg 5.1 lines 1-2).
  if (stats != nullptr) ++stats->planning_gosn_builds;
  plan.gosn = Gosn::Build(branch);
  const std::vector<TriplePattern>& tps = plan.gosn.tps();
  if (tps.empty()) return plan;  // Empty pattern: nothing to order or load.
  ValidateVarPositions(tps);
  if (!Goj::IsConnectedQuery(tps)) {
    throw UnsupportedQueryError(
        "query contains a Cartesian product (disconnected GoT); LBR "
        "requires ×-free patterns (Section 5.2)");
  }

  // Non-well-designed branch: Appendix B conversion of the violating OPT
  // edges into inner joins (null-intolerant interpretation).
  std::vector<std::pair<int, int>> violations =
      plan.gosn.ComputeWdViolationPairs();
  if (!violations.empty()) {
    plan.well_designed = false;
    plan.gosn.ConvertViolationPairs(violations);
  }

  const Gosn& gosn = plan.gosn;
  plan.goj = Goj::Build(tps);
  const Goj& goj = plan.goj;

  // --- decide-best-match-reqd (Alg 5.1 line 5 / Lemma 3.4): needed for a
  // cyclic GoJ where some slave supernode holds more than one jvar. The
  // ablation knobs that break Lemma 3.3's preconditions (pruning disabled,
  // greedy order on an acyclic GoJ) also force it, since minimality is then
  // not guaranteed. Structural throughout — no cardinality input — which is
  // what makes the decision safely cacheable across constant rebindings.
  plan.nb_reqd = !options_.enable_prune ||
                 options_.order_strategy == JvarOrderStrategy::kGreedy;
  if (goj.IsCyclic()) {
    for (int sn : gosn.SlaveSupernodes()) {
      std::set<int> jvars_in_sn;
      for (int tp_id : gosn.supernode(sn).tp_ids) {
        for (const std::string& v : tps[tp_id].Vars()) {
          int j = goj.JvarIndex(v);
          if (j >= 0) jvars_in_sn.insert(j);
        }
      }
      if (jvars_in_sn.size() > 1) {
        plan.nb_reqd = true;
        break;
      }
    }
  }

  // --- Selectivity estimates. A template compile estimates on the
  // triggering query's concrete constants (markers are not in the
  // dictionary and would read as impossible TPs).
  plan.estimated_cards.resize(tps.size());
  for (size_t i = 0; i < tps.size(); ++i) {
    TriplePattern tp =
        slot_constants != nullptr ? BindTp(tps[i], *slot_constants) : tps[i];
    plan.estimated_cards[i] =
        options_.planner == PlannerMode::kCost
            ? EstimateTpCardinalityFromStats(predicate_stats(), *dict_, tp)
            : EstimateTpCardinality(*index_, *dict_, tp);
  }
  const std::vector<uint64_t>& cards = plan.estimated_cards;

  // --- get_jvar_order (Alg 3.1 / ablation strategies). Both planner modes
  // run the same ordering algorithm; they differ only in where `cards`
  // came from, so any Alg-3.1-structured order stays result-correct.
  if (stats != nullptr) ++stats->planning_jvar_orders;
  switch (options_.order_strategy) {
    case JvarOrderStrategy::kPaper:
      plan.order = GetJvarOrder(gosn, goj, cards);
      break;
    case JvarOrderStrategy::kNaiveBottomUp:
      plan.order = GetNaiveJvarOrder(gosn, goj, cards);
      break;
    case JvarOrderStrategy::kGreedy:
      plan.order = GetGreedyJvarOrder(goj, cards);
      break;
  }

  // --- Orientation: for (?a :p ?b) load S-O iff ?a precedes ?b in
  // order_bu.
  plan.prefer_subject_rows.assign(tps.size(), true);
  for (size_t i = 0; i < tps.size(); ++i) {
    if (tps[i].s.is_var && tps[i].o.is_var && !tps[i].p.is_var) {
      int js = goj.JvarIndex(tps[i].s.var);
      int jo = goj.JvarIndex(tps[i].o.var);
      if (js >= 0 && jo < 0) {
        plan.prefer_subject_rows[i] = true;
      } else if (js < 0 && jo >= 0) {
        plan.prefer_subject_rows[i] = false;
      } else if (js >= 0 && jo >= 0) {
        plan.prefer_subject_rows[i] = FirstIndexOf(plan.order.order_bu, js) <=
                                      FirstIndexOf(plan.order.order_bu, jo);
      }
    }
  }

  // --- Load order. The heuristic planner loads in serialization order
  // (the paper's behavior); the cost planner loads masters first (so their
  // active-pruning masks exist before slaves load), then smallest
  // estimate first within a depth. Loading order only affects which masks
  // apply during init — prune_triples reaches the same fixpoint either
  // way — so this is a cost knob, not a correctness one.
  plan.load_order.resize(tps.size());
  for (size_t i = 0; i < tps.size(); ++i) {
    plan.load_order[i] = static_cast<int>(i);
  }
  if (options_.planner == PlannerMode::kCost) {
    std::stable_sort(plan.load_order.begin(), plan.load_order.end(),
                     [&](int a, int b) {
                       int da = gosn.MasterDepth(gosn.SupernodeOf(a));
                       int db = gosn.MasterDepth(gosn.SupernodeOf(b));
                       if (da != db) return da < db;
                       return cards[a] < cards[b];
                     });
  }
  return plan;
}

// Aligned so that code placed before this function cannot move its hot
// loop. On short queries the inlined destruction of the TP BitMats (one
// pass over every row handle in BitMat::rows_) dominates; linked across a
// 64-byte line, that loop ran ~1.8x slower and perfbench lubm-param's p50
// rose ~27% (4-vCPU Xeon, GCC Release). Sparse BitMat rows would remove
// the loop and this pin with it.
[[gnu::aligned(64)]] Engine::BranchResult Engine::ExecuteBranchPlan(
    const BranchPlan& plan, const ReboundTerms* rebound,
    const std::vector<std::string>& projection, QueryStats* stats) {
  BranchResult result;
  const Gosn& gosn = plan.gosn;
  // Terms come from the rebinding overlay when one exists; all structural
  // reads (supernodes, master/peer relations) go to the shared template.
  const std::vector<TriplePattern>& tps =
      rebound != nullptr && !rebound->tps.empty() ? rebound->tps : gosn.tps();
  if (tps.empty()) {
    // Empty pattern: one empty mapping.
    result.rows.emplace_back(projection.size(), kNullBinding);
    return result;
  }
  const Goj& goj = plan.goj;
  const JvarOrder& order = plan.order;
  const bool nb_reqd = plan.nb_reqd;

  if (stats != nullptr) {
    stats->goj_cyclic = stats->goj_cyclic || goj.IsCyclic();
    stats->num_supernodes += gosn.num_supernodes();
    if (!plan.well_designed) stats->well_designed = false;
    for (uint64_t card : plan.estimated_cards) {
      stats->initial_triples += card;
    }
  }

  GlobalIds ids = GlobalIds::FromDictionary(*dict_);

  // Mapped-snapshot readahead: hint the kernel at the side of every fixed
  // predicate the load order is about to read, so later TPs' extents fault
  // in from disk while earlier TPs decode (DESIGN.md §11). No-op on heap
  // indexes and on already-resident slices.
  if (options_.snapshot_prefetch && index_->mapped()) {
    for (int tp_id : plan.load_order) {
      const size_t i = static_cast<size_t>(tp_id);
      const TriplePattern& tp = tps[i];
      if (tp.p.is_var) continue;
      if (auto p = dict_->PredicateId(tp.p.term)) {
        index_->Prefetch(*p, TpReadSide(tp, plan.prefer_subject_rows[i]));
      }
    }
  }

  // --- init (Alg 5.1 lines 3-4): load per-TP BitMats in plan load order
  // with active pruning from already-loaded master/peer TPs.
  Stopwatch init_watch;
  std::vector<TpState> states(tps.size());
  std::vector<int> loaded;  // tp ids already initialized, in load sequence
  loaded.reserve(tps.size());
  bool empty_master = false;
  for (size_t k = 0; k < tps.size() && !empty_master; ++k) {
    const size_t i = static_cast<size_t>(plan.load_order[k]);
    // Per-TP-load cancellation check (forced poll: loads are coarse).
    exec_ctx_.CheckCancelNow();
    TpState& st = states[i];
    st.tp = tps[i];
    st.tp_id = static_cast<int>(i);
    st.sn_id = gosn.SupernodeOf(st.tp_id);
    st.estimated_count = plan.estimated_cards[i];

    const bool prefer_subject_rows = plan.prefer_subject_rows[i];

    // Active pruning masks from already-loaded TPs that are masters or
    // peers of this one.
    Bitvector row_mask, col_mask;
    ActiveMasks masks;
    if (options_.enable_active_pruning) {
      auto build_mask = [&](const std::string& var, DomainKind kind,
                            uint32_t size, Bitvector* mask) -> bool {
        bool restricted = false;
        ScratchBits fold_s(&exec_ctx_), aligned_s(&exec_ctx_);
        for (int j : loaded) {
          const TpState& prev = states[j];
          if (!prev.mat.HasVar(var)) continue;
          bool can_restrict =
              gosn.TpIsMasterOf(prev.tp_id, st.tp_id) ||
              gosn.TpIsPeer(prev.tp_id, st.tp_id);
          if (!can_restrict) continue;
          // O(prev-TPs) folds per loaded TP: the version-stamped memo makes
          // refolds of not-yet-pruned previous TPs word copies.
          prev.mat.bm.FoldInto(prev.mat.DimOf(var), fold_s.get(), &exec_ctx_,
                               options_.pool);
          AlignMaskInto(*fold_s, prev.mat.KindOf(var), kind,
                        index_->num_common(), size, aligned_s.get());
          if (!restricted) {
            mask->AssignResized(*aligned_s, size);
            restricted = true;
          } else {
            mask->And(*aligned_s);
          }
        }
        return restricted;
      };
      // Pre-compute this TP's dimension layout without loading, mirroring
      // the loader's case analysis: probe with a dry call is overkill, so
      // derive kinds/vars directly.
      TriplePattern& tp = st.tp;
      std::string rvar, cvar;
      DomainKind rkind = DomainKind::kUnit, ckind = DomainKind::kUnit;
      uint32_t rsize = 1, csize = 1;
      if (!tp.p.is_var) {
        if (tp.s.is_var && tp.o.is_var) {
          if (prefer_subject_rows) {
            rvar = tp.s.var; rkind = DomainKind::kSubject;
            rsize = index_->num_subjects();
            cvar = tp.o.var; ckind = DomainKind::kObject;
            csize = index_->num_objects();
          } else {
            rvar = tp.o.var; rkind = DomainKind::kObject;
            rsize = index_->num_objects();
            cvar = tp.s.var; ckind = DomainKind::kSubject;
            csize = index_->num_subjects();
          }
        } else if (tp.s.is_var) {
          rvar = tp.s.var; rkind = DomainKind::kSubject;
          rsize = index_->num_subjects();
        } else if (tp.o.is_var) {
          rvar = tp.o.var; rkind = DomainKind::kObject;
          rsize = index_->num_objects();
        }
      } else {
        rvar = tp.p.var; rkind = DomainKind::kPredicate;
        rsize = index_->num_predicates();
        if (!tp.s.is_var && tp.o.is_var) {
          cvar = tp.o.var; ckind = DomainKind::kObject;
          csize = index_->num_objects();
        } else if (tp.s.is_var && !tp.o.is_var) {
          cvar = tp.s.var; ckind = DomainKind::kSubject;
          csize = index_->num_subjects();
        }
      }
      if (!rvar.empty() && rkind != DomainKind::kPredicate &&
          build_mask(rvar, rkind, rsize, &row_mask)) {
        masks.row_mask = &row_mask;
      }
      if (!cvar.empty() && ckind != DomainKind::kPredicate &&
          build_mask(cvar, ckind, csize, &col_mask)) {
        masks.col_mask = &col_mask;
      }
    }

    if (options_.enable_tp_cache) {
      // Cache path: fetch the unmasked BitMat and apply active-pruning
      // masks while copying out of the cache.
      st.mat = tp_cache_->GetOrLoadMasked(*index_, *dict_, tps[i],
                                          prefer_subject_rows, masks,
                                          &exec_ctx_);
    } else {
      st.mat = LoadTpBitMat(*index_, *dict_, tps[i], prefer_subject_rows,
                            masks, &exec_ctx_);
    }
    st.initial_count = st.mat.bm.Count();
    // Memory accounting point: the loaded BitMat's payload is proportional
    // to its set bits (compressed rows).
    exec_ctx_.ChargeMemory(st.initial_count / 4 + 1024);
    loaded.push_back(static_cast<int>(i));

    // Simple optimization (Section 5): an empty absolute-master TP means an
    // empty result.
    if (st.mat.bm.IsEmpty() && gosn.IsAbsoluteMaster(st.sn_id)) {
      empty_master = true;
    }
  }
  if (stats != nullptr) stats->t_init_sec += init_watch.Seconds();
  if (empty_master) {
    if (stats != nullptr) stats->empty_result_shortcut = true;
    return result;
  }

  // --- prune_triples (Alg 3.2).
  Stopwatch prune_watch;
  if (options_.enable_prune) {
    PruneTriples(order, gosn, goj, index_->num_common(), &states, &exec_ctx_,
                 options_.pool);
  }
  if (stats != nullptr) stats->t_prune_sec += prune_watch.Seconds();

  uint64_t after_prune = 0;
  for (const TpState& st : states) {
    after_prune += st.CurrentCount();
    if (st.mat.bm.IsEmpty() && gosn.IsAbsoluteMaster(st.sn_id)) {
      empty_master = true;
    }
  }
  if (stats != nullptr) stats->triples_after_prune += after_prune;
  if (empty_master) {
    if (stats != nullptr) stats->empty_result_shortcut = true;
    return result;
  }

  // --- stps sort (Alg 5.1 line 8): absolute-master TPs first, ascending
  // triple count; then descending master-slave hierarchy (masters and their
  // peers before slaves), selective first among peers.
  std::vector<int> stps(tps.size());
  for (size_t i = 0; i < tps.size(); ++i) stps[i] = static_cast<int>(i);
  std::stable_sort(stps.begin(), stps.end(), [&](int a, int b) {
    bool am_a = gosn.IsAbsoluteMaster(states[a].sn_id);
    bool am_b = gosn.IsAbsoluteMaster(states[b].sn_id);
    if (am_a != am_b) return am_a;
    if (!am_a) {
      if (gosn.TpIsMasterOf(a, b)) return true;
      if (gosn.TpIsMasterOf(b, a)) return false;
      int da = gosn.MasterDepth(states[a].sn_id);
      int db = gosn.MasterDepth(states[b].sn_id);
      if (da != db) return da < db;
    }
    return states[a].CurrentCount() < states[b].CurrentCount();
  });

  // --- multi-way pipelined join (Alg 5.4) with FaN filters.
  MultiwayJoin::Options join_options;
  join_options.nullification = nb_reqd;
  join_options.filters = rebound != nullptr && !rebound->filters.empty()
                             ? rebound->filters
                             : gosn.filters();
  join_options.enum_mode = options_.join_enum_mode;
  MultiwayJoin join(gosn, ids, *dict_, &states, stps, join_options);

  // Collect FULL rows (every branch variable) so that phantom-row cleanup
  // and best-match see pre-projection granularity; project afterwards.
  std::vector<RawRow> full_rows;
  // Dedup key for nulled phantom rows; hashed — this insert runs once per
  // emitted result row.
  std::unordered_set<RawRow, RawRowHash> seen_nulled;
  bool any_nulled = false;
  join.Run(
      [&](const RawRow& row, bool nulled) {
        if (nulled) {
          any_nulled = true;
          // A nulled row is one enumeration attempt of a slave group that
          // failed under the original join order; all attempts collapse to
          // the same nulled row — keep one (Rao et al.'s minimum union).
          if (!seen_nulled.insert(row).second) return;
        }
        // Memory accounting point: the accumulated result rows.
        exec_ctx_.ChargeMemory(row.size() * sizeof(uint64_t) + 16);
        full_rows.push_back(row);
      },
      &exec_ctx_);

  // --- best-match (Alg 5.1 lines 10-13), needed when the query is cyclic
  // with multi-jvar slaves, or when FaN/nullification nulled some group.
  if (nb_reqd || join.nulling_applied() || any_nulled) {
    if (stats != nullptr) stats->best_match_used = true;
    exec_ctx_.CheckCancelNow();  // best-match is O(rows^2 worst case)
    full_rows =
        BestMatch(std::move(full_rows), join.MasterColumns(), &exec_ctx_);
  }

  // Project onto the query projection.
  std::vector<int> col_of_projection(projection.size(), -1);
  for (size_t i = 0; i < projection.size(); ++i) {
    col_of_projection[i] = join.VarIndex(projection[i]);
  }
  result.rows.reserve(full_rows.size());
  for (const RawRow& row : full_rows) {
    // Post-join phases scale with the result, not the data; on large
    // answers they dominate the tail, so they need checks of their own.
    exec_ctx_.CheckCancel();
    exec_ctx_.ChargeMemory(projection.size() * sizeof(uint64_t) + 16);
    RawRow projected(projection.size(), kNullBinding);
    for (size_t i = 0; i < projection.size(); ++i) {
      if (col_of_projection[i] >= 0) projected[i] = row[col_of_projection[i]];
    }
    result.rows.push_back(std::move(projected));
  }
  return result;
}

uint64_t Engine::Execute(const ParsedQuery& query, const RowSink& sink,
                         QueryStats* stats, QueryControl* control) {
  Stopwatch total_watch;
  QueryStats local_stats;
  QueryStats* st = stats ? stats : &local_stats;
  *st = QueryStats{};

  // Attach the per-query lifecycle control to the engine arena; every
  // cancellation check and memory charge below reads it from there. The
  // guard detaches on every exit path (including aborts), so the engine is
  // immediately reusable and a stale control can never outlive its query.
  struct ControlGuard {
    ExecContext* ctx;
    ~ControlGuard() { ctx->SetQueryControl(nullptr); }
  } control_guard{&exec_ctx_};
  exec_ctx_.SetQueryControl(control);

  try {
    return ExecuteControlled(query, sink, st, total_watch);
  } catch (const QueryAbortedError& e) {
    // Structured abort: report the true termination reason with whatever
    // partial stats the phases accumulated, then let the caller decide.
    st->termination = e.code();
    st->t_total_sec = total_watch.Seconds();
    throw;
  }
}

CompiledPlan Engine::CompilePlan(const ParsedQuery& query,
                                 const std::vector<Term>* slot_constants,
                                 QueryStats* stats) {
  CompiledPlan plan;
  plan.projection = query.EffectiveProjection();
  plan.planner = options_.planner;

  // Cheap filter optimization, then UNF rewrite (Section 5.2).
  if (stats != nullptr) ++stats->planning_rewrites;
  std::unique_ptr<Algebra> body = EliminateVarEqualities(*query.body);
  UnfResult unf = ToUnionNormalForm(*body);
  plan.may_have_spurious = unf.may_have_spurious;
  plan.rule3 = std::move(unf.rule3);
  plan.branches.reserve(unf.branches.size());
  for (const auto& branch : unf.branches) {
    plan.branches.push_back(PlanBranch(*branch, slot_constants, stats));
  }

  // Precompute where each branch's slot markers live, so a cache hit
  // rebinds them by direct assignment (ExecuteTextControlled) instead of
  // scanning — and copying — the whole GoSN. Non-template compiles have no
  // markers and record nothing.
  for (BranchPlan& branch : plan.branches) {
    const std::vector<TriplePattern>& tps = branch.gosn.tps();
    for (size_t i = 0; i < tps.size(); ++i) {
      const PatternTerm* fields[3] = {&tps[i].s, &tps[i].p, &tps[i].o};
      for (int f = 0; f < 3; ++f) {
        size_t slot = 0;
        if (!fields[f]->is_var && IsShapeParam(fields[f]->term, &slot)) {
          branch.tp_slot_sites.push_back({static_cast<int>(i), f, slot});
        }
      }
    }
    for (const ScopedFilter& filter : branch.gosn.filters()) {
      ScopedFilter probe = filter;
      RewriteScopedFilterTerms(&probe, [&branch](Term* term) {
        size_t slot = 0;
        if (IsShapeParam(*term, &slot)) branch.filters_have_slots = true;
      });
      if (branch.filters_have_slots) break;
    }
  }
  return plan;
}

uint64_t Engine::ExecuteControlled(const ParsedQuery& query,
                                   const RowSink& sink, QueryStats* st,
                                   const Stopwatch& total_watch) {
  // A deadline already in the past aborts before any work.
  exec_ctx_.CheckCancelNow();
  Stopwatch plan_watch;
  CompiledPlan plan = CompilePlan(query, nullptr, st);
  st->t_plan_sec += plan_watch.Seconds();
  return ExecutePlanned(plan, nullptr, sink, st, total_watch);
}

uint64_t Engine::ExecutePlanned(const CompiledPlan& plan,
                                const std::vector<ReboundTerms>* rebound,
                                const RowSink& sink, QueryStats* st,
                                const Stopwatch& total_watch) {
  const std::vector<std::string>& projection = plan.projection;
  st->num_union_branches = static_cast<int>(plan.branches.size());

  // Snapshot the cumulative cache counters so the stats report per-query
  // deltas (TpCache and the fold memo both outlive individual queries).
  const uint64_t tp_hits0 = tp_cache_->hits();
  const uint64_t tp_misses0 = tp_cache_->misses();
  const uint64_t tp_contention0 = tp_cache_->lock_contention();
  const uint64_t tp_waits0 = tp_cache_->single_flight_waits();
  const uint64_t fold_hits0 = exec_ctx_.fold_cache_hits();
  const uint64_t fold_misses0 = exec_ctx_.fold_cache_misses();
  const uint64_t fold_once0 = exec_ctx_.fold_once_publishes();
  const uint64_t snap_mat0 = index_->snapshot_materializations();
  const uint64_t snap_spill0 = index_->snapshot_spills();
  const uint64_t snap_pref0 = index_->snapshot_prefetches();
  FaultRegistry& faults = FaultRegistry::Instance();
  const uint64_t faults0 = faults.injected_total();
  const uint64_t retries0 = faults.retries_total();

  std::vector<RawRow> all_rows;
  for (size_t bi = 0; bi < plan.branches.size(); ++bi) {
    const BranchPlan& branch = plan.branches[bi];
    const ReboundTerms* branch_rebound =
        rebound != nullptr ? &(*rebound)[bi] : nullptr;
    BranchResult br = ExecuteBranchPlan(branch, branch_rebound, projection, st);
    for (RawRow& row : br.rows) {
      exec_ctx_.CheckCancel();
      all_rows.push_back(std::move(row));
    }
  }

  st->tp_cache_hits = tp_cache_->hits() - tp_hits0;
  st->tp_cache_misses = tp_cache_->misses() - tp_misses0;
  st->tp_cache_held_triples = tp_cache_->held_triples();
  st->tp_cache_contention = tp_cache_->lock_contention() - tp_contention0;
  st->tp_cache_flight_waits = tp_cache_->single_flight_waits() - tp_waits0;
  st->fold_cache_hits = exec_ctx_.fold_cache_hits() - fold_hits0;
  st->fold_cache_misses = exec_ctx_.fold_cache_misses() - fold_misses0;
  st->fold_once_publishes = exec_ctx_.fold_once_publishes() - fold_once0;
  st->snapshot_materializations =
      index_->snapshot_materializations() - snap_mat0;
  st->snapshot_spills = index_->snapshot_spills() - snap_spill0;
  st->snapshot_prefetches = index_->snapshot_prefetches() - snap_pref0;
  st->snapshot_resident_bytes = index_->snapshot_resident_bytes();
  st->snapshot_budget_bytes = index_->snapshot_budget_bytes();
  st->faults_injected = faults.injected_total() - faults0;
  st->fault_retries = faults.retries_total() - retries0;
  st->quarantined_slices = index_->snapshot_quarantined();

  // Rule-3 UNION rewrites can introduce spurious results across branches
  // (footnote 6 of the paper): rows subsumed by another branch's fuller
  // match, and unmatched rows duplicated once per union arm. Remove the
  // first kind with a final best-match; fix the second by dividing the
  // multiplicity of fully-unmatched rows by the arm count.
  if (plan.may_have_spurious && plan.branches.size() > 1) {
    st->best_match_used = true;
    exec_ctx_.CheckCancelNow();  // best-match is O(rows^2 worst case)
    all_rows = BestMatch(std::move(all_rows), {}, &exec_ctx_);
    for (const UnfResult::Rule3Info& info : plan.rule3) {
      if (info.arm_count < 2 || info.exclusive_vars.empty()) continue;
      // Projection columns of the OPT pattern's exclusive variables. If any
      // exclusive var is not projected, unmatched rows cannot be identified
      // reliably; skip (exact for SELECT *, the paper's operating mode).
      std::vector<int> cols;
      bool all_projected = true;
      for (const std::string& v : info.exclusive_vars) {
        auto it = std::find(projection.begin(), projection.end(), v);
        if (it == projection.end()) {
          all_projected = false;
          break;
        }
        cols.push_back(static_cast<int>(it - projection.begin()));
      }
      if (!all_projected) continue;
      // Keep ceil(count / arm_count) copies of each distinct unmatched row
      // (the rewrite emitted arm_count copies per original row).
      std::unordered_map<RawRow, int, RawRowHash> kept;
      std::vector<RawRow> filtered;
      filtered.reserve(all_rows.size());
      for (RawRow& row : all_rows) {
        exec_ctx_.CheckCancel();
        bool unmatched = true;
        for (int c : cols) {
          if (row[c] != kNullBinding) {
            unmatched = false;
            break;
          }
        }
        if (!unmatched) {
          filtered.push_back(std::move(row));
          continue;
        }
        if (++kept[row] % info.arm_count == 1 || info.arm_count == 1) {
          filtered.push_back(std::move(row));
        }
      }
      all_rows = std::move(filtered);
    }
  }

  // Commit point (DESIGN.md §9): one last forced poll, then the answer is
  // delivered all-or-nothing — no check may fire once the first row has
  // reached the sink, so an abort can never leak a partial result.
  exec_ctx_.CheckCancelNow();
  st->num_results = all_rows.size();
  for (const RawRow& row : all_rows) {
    if (CountNulls(row) > 0) ++st->num_results_with_nulls;
    sink(row);
  }
  st->t_total_sec = total_watch.Seconds();
  return st->num_results;
}

uint64_t Engine::Execute(const std::string& sparql, const RowSink& sink,
                         QueryStats* stats, QueryControl* control,
                         std::vector<std::string>* projection_out) {
  Stopwatch total_watch;
  QueryStats local_stats;
  QueryStats* st = stats ? stats : &local_stats;
  *st = QueryStats{};

  // Same lifecycle-control protocol as the ParsedQuery entry point.
  struct ControlGuard {
    ExecContext* ctx;
    ~ControlGuard() { ctx->SetQueryControl(nullptr); }
  } control_guard{&exec_ctx_};
  exec_ctx_.SetQueryControl(control);

  try {
    return ExecuteTextControlled(sparql, sink, st, total_watch,
                                 projection_out);
  } catch (const QueryAbortedError& e) {
    st->termination = e.code();
    st->t_total_sec = total_watch.Seconds();
    throw;
  }
}

uint64_t Engine::ExecuteTextControlled(
    const std::string& sparql, const RowSink& sink, QueryStats* st,
    const Stopwatch& total_watch, std::vector<std::string>* projection_out) {
  exec_ctx_.CheckCancelNow();

  if (!options_.enable_plan_cache) {
    Stopwatch plan_watch;
    ++st->planning_parses;
    ParsedQuery query = Parser::Parse(sparql);
    CompiledPlan plan = CompilePlan(query, nullptr, st);
    st->t_plan_sec += plan_watch.Seconds();
    if (projection_out != nullptr) *projection_out = plan.projection;
    return ExecutePlanned(plan, nullptr, sink, st, total_watch);
  }

  // Plan-cache path (DESIGN.md §10): canonicalize to a shape key, fetch or
  // compile the skeleton (single-flight across engines sharing the cache),
  // then rebind this query's constants into a private copy.
  Stopwatch plan_watch;
  // Key-only canonicalization: the hit path needs the key and the constant
  // bindings but never the template token stream, so its construction is
  // deferred into the (rare, already-expensive) miss closure below.
  QueryShape shape = CanonicalizeQuery(sparql, ShapeDetail::kKeyOnly);
  bool compiled_here = false;
  std::shared_ptr<const CompiledPlan> cached = plan_cache_->GetOrCompile(
      shape.key, [&]() {
        compiled_here = true;
        ++st->planning_parses;
        // The template token stream parses exactly where the original
        // would: marker tokens preserve the lexical kind they replaced.
        // Error *messages*, though, would name marker text and (for
        // prefixed queries) shifted positions — so on failure re-parse
        // the original text and let ITS error surface instead.
        QueryShape tmpl = CanonicalizeQuery(sparql, ShapeDetail::kFull);
        ParsedQuery query;
        try {
          query = Parser::Parse(std::move(tmpl.tokens));
        } catch (const std::exception&) {
          Parser::Parse(sparql);  // throws the user-facing diagnostic
          throw;  // template-only failure: propagate the original
        }
        auto plan = std::make_shared<CompiledPlan>(
            CompilePlan(query, &shape.constants, st));
        plan->num_slots = shape.constants.size();
        return plan;
      });
  if (compiled_here) {
    ++st->plan_cache_misses;
  } else {
    ++st->plan_cache_hits;
  }

  // Rebind: overlay only the Terms that can differ from the template. The
  // compile pass recorded every marker position (tp_slot_sites /
  // filters_have_slots), so a hit copies at most each branch's TP list and
  // writes constants by direct assignment; the GoSN's structural state and
  // everything else in the plan is shared from the cache untouched. A
  // shape with no constants needs no rebinding at all.
  std::vector<ReboundTerms> rebound;
  if (cached->num_slots > 0) {
    rebound.resize(cached->branches.size());
    for (size_t bi = 0; bi < cached->branches.size(); ++bi) {
      const BranchPlan& branch = cached->branches[bi];
      ReboundTerms& terms = rebound[bi];
      if (!branch.tp_slot_sites.empty()) {
        terms.tps = branch.gosn.tps();
        for (const TpSlotSite& site : branch.tp_slot_sites) {
          if (site.slot >= shape.constants.size()) continue;
          TriplePattern& tp = terms.tps[static_cast<size_t>(site.tp)];
          PatternTerm& field =
              site.field == 0 ? tp.s : site.field == 1 ? tp.p : tp.o;
          field.term = shape.constants[site.slot];
        }
      }
      if (branch.filters_have_slots) {
        terms.filters = branch.gosn.filters();
        for (ScopedFilter& filter : terms.filters) {
          RewriteScopedFilterTerms(&filter, [&shape](Term* term) {
            size_t slot = 0;
            if (IsShapeParam(*term, &slot) && slot < shape.constants.size()) {
              *term = shape.constants[slot];
            }
          });
        }
      }
    }
  }
  st->t_plan_sec += plan_watch.Seconds();
  if (projection_out != nullptr) *projection_out = cached->projection;
  return ExecutePlanned(*cached, rebound.empty() ? nullptr : &rebound, sink,
                        st, total_watch);
}

ResultTable Engine::ExecuteToTable(const ParsedQuery& query,
                                   QueryStats* stats, QueryControl* control) {
  ResultTable table;
  table.var_names = query.EffectiveProjection();
  GlobalIds ids = GlobalIds::FromDictionary(*dict_);
  Execute(
      query,
      [&](const RawRow& row) {
        std::vector<std::optional<Term>> decoded(row.size());
        for (size_t i = 0; i < row.size(); ++i) {
          if (row[i] != kNullBinding) decoded[i] = ids.Decode(*dict_, row[i]);
        }
        table.rows.push_back(std::move(decoded));
      },
      stats, control);
  return table;
}

ResultTable Engine::ExecuteToTable(const std::string& sparql,
                                   QueryStats* stats, QueryControl* control) {
  ResultTable table;
  GlobalIds ids = GlobalIds::FromDictionary(*dict_);
  Execute(
      sparql,
      [&](const RawRow& row) {
        std::vector<std::optional<Term>> decoded(row.size());
        for (size_t i = 0; i < row.size(); ++i) {
          if (row[i] != kNullBinding) decoded[i] = ids.Decode(*dict_, row[i]);
        }
        table.rows.push_back(std::move(decoded));
      },
      stats, control, &table.var_names);
  return table;
}

std::vector<BatchResult> Engine::ExecuteBatch(
    const TripleIndex& index, const Dictionary& dict,
    const std::vector<std::string>& queries, const BatchOptions& options) {
  std::vector<BatchResult> results(queries.size());
  if (queries.empty()) return results;

  EngineOptions engine_options = options.engine;
  // Queries are the unit of parallelism here; intra-query sharding would
  // only fight the batch for the same workers (nested collectives inline).
  engine_options.pool = nullptr;

  std::shared_ptr<TpCache> cache = options.shared_cache;
  if (cache == nullptr && engine_options.enable_tp_cache) {
    cache = std::make_shared<TpCache>(engine_options.tp_cache_budget,
                                      engine_options.tp_cache_shards);
  }
  // One plan cache for all workers: batch queries are text, so they route
  // through the shape-keyed compiled-plan cache; repeated shapes across
  // the stream compile once (single-flight) regardless of which runner
  // draws them.
  if (engine_options.plan_cache == nullptr &&
      engine_options.enable_plan_cache) {
    engine_options.plan_cache = std::make_shared<PlanCache>(
        engine_options.plan_cache_capacity, engine_options.plan_cache_shards);
  }

  // --- Admission (DESIGN.md §9): the batch is a FIFO run queue drained by
  // `runners` concurrent workers; anything beyond the runners plus the
  // bounded wait queue is load-shed upfront — rejected queries never touch
  // an engine, which is the whole point of shedding under overload.
  int slots = options.pool != nullptr ? options.pool->num_slots() : 1;
  int runners = slots;
  if (options.max_concurrent_queries > 0) {
    runners = std::min(runners, options.max_concurrent_queries);
  }
  size_t admitted = queries.size();
  if (options.max_queued_queries >= 0) {
    admitted = std::min<size_t>(
        admitted, static_cast<size_t>(runners) +
                      static_cast<size_t>(options.max_queued_queries));
  }
  for (size_t qi = admitted; qi < queries.size(); ++qi) {
    results[qi].outcome = {QueryTermination::kOverloaded,
                           "admission queue full"};
    results[qi].error = "overloaded: admission queue full";
  }

  // One engine per runner: engines are single-threaded (private arena +
  // per-query state), so each runner reuses its own warm engine across the
  // queries it drains, while the TP cache is shared by all of them.
  std::vector<std::unique_ptr<Engine>> engines;
  engines.reserve(slots);
  for (int s = 0; s < slots; ++s) {
    engines.push_back(
        std::make_unique<Engine>(&index, &dict, engine_options, cache));
  }

  Stopwatch queue_watch;  // admission time; queue wait is measured from it
  auto run_one = [&](uint32_t qi, Engine* engine) {
    BatchResult& out = results[qi];
    out.queue_wait_sec = queue_watch.Seconds();
    QueryControl control;
    if (options.timeout_ms > 0) {
      control.SetTimeout(std::chrono::milliseconds(options.timeout_ms));
    }
    if (options.memory_budget > 0) {
      control.SetMemoryBudget(options.memory_budget);
    }
    try {
      out.table = engine->ExecuteToTable(queries[qi], &out.stats, &control);
      out.outcome = {};
    } catch (const QueryAbortedError& e) {
      out.outcome = {e.code(), e.what()};
      out.error = e.what();
    } catch (const std::exception& e) {
      out.outcome = {QueryTermination::kError, e.what()};
      out.error = e.what();
    }
  };

  if (options.pool == nullptr || runners <= 1) {
    for (uint32_t qi = 0; qi < admitted; ++qi) {
      run_one(qi, engines[0].get());
    }
    return results;
  }
  // `runners` concurrent drains of a shared FIFO cursor: unlike fanning the
  // queries themselves through ParallelFor, this caps in-flight queries at
  // `runners` while keeping every admitted query in arrival order.
  std::atomic<uint32_t> next_query{0};
  options.pool->ParallelFor(
      0, static_cast<uint32_t>(runners), /*grain=*/1,
      [&](uint32_t begin, uint32_t end, ExecContext* /*ctx*/, int slot) {
        for (uint32_t r = begin; r < end; ++r) {
          for (;;) {
            uint32_t qi =
                next_query.fetch_add(1, std::memory_order_relaxed);
            if (qi >= admitted) break;
            run_one(qi, engines[slot].get());
          }
        }
      });
  return results;
}

}  // namespace lbr
