#include "core/prune.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <tuple>

namespace lbr {

namespace {

uint32_t DimSize(const TpState& tp, const std::string& jvar) {
  return tp.mat.DimOf(jvar) == Dim::kRow ? tp.mat.bm.num_rows()
                                         : tp.mat.bm.num_cols();
}

/// Smallest peer supernode id per supernode — the canonical peer-group
/// key (PeersOf returns ascending ids, so its front is the minimum).
/// Query-static, so computed once per PruneTriples call; the old code
/// rescanned every supernode per holder per jvar (O(S²) per TP).
std::vector<int> CanonicalPeerGroups(const Gosn& gosn) {
  std::vector<int> canon(gosn.num_supernodes());
  for (int sn = 0; sn < gosn.num_supernodes(); ++sn) {
    canon[sn] = gosn.PeersOf(sn).front();
  }
  return canon;
}

/// One semi-join of a pass with its read/write footprint over TP ids
/// (DESIGN.md §7). A simple semi-join writes `slave` and reads `master`; a
/// clustered semi-join reads and writes every member of `cluster`.
struct SemiJoinTask {
  int jvar = -1;             ///< Index into goj.jvars().
  int master = -1;           ///< Simple semi-join only.
  int slave = -1;            ///< Simple semi-join only.
  std::vector<int> cluster;  ///< Non-empty for clustered semi-joins.
  std::vector<int> writes;   ///< TpStates this task mutates.
  std::vector<int> reads;    ///< TpStates this task only folds.
};

bool Intersects(const std::vector<int>& a, const std::vector<int>& b) {
  for (int x : a) {
    for (int y : b) {
      if (x == y) return true;
    }
  }
  return false;
}

/// The conflict rule: two tasks conflict iff they share a written TpState
/// or one writes what the other reads. Read/read sharing (two tasks
/// folding one master) is allowed — the fold memo's once-flag makes
/// concurrent FoldInto safe.
bool TasksConflict(const SemiJoinTask& a, const SemiJoinTask& b) {
  return Intersects(a.writes, b.writes) || Intersects(a.writes, b.reads) ||
         Intersects(a.reads, b.writes);
}

/// Duplicate-task elimination across the compiled passes (DESIGN.md §7).
/// A simple (master, slave, jvar) semi-join re-run with bit-identical
/// inputs is a pure no-op: after the first run fold(slave) is a subset of
/// the aligned master fold, so the re-run's beta equals fold(slave) and no
/// unfold fires. So a simple task whose identity was compiled before AND
/// whose read/write footprint has not been written since that run can be
/// dropped without changing a single bit. Tracked with per-TP write
/// epochs: the stored snapshot includes the task's own writes, so an epoch
/// mismatch means some OTHER task touched the footprint in between. The
/// fixpoint's second (top-down) pass revisits every jvar of the first,
/// which is where the duplicates actually live — the state spans both
/// passes. Clustered semi-joins are NEVER deduped: each member is pruned
/// against the others' pre-run folds, so the task's own writes shrink its
/// own inputs and a re-run can prune further (the reason the fixpoint
/// exists) — they only bump the epochs that invalidate others' snapshots.
struct DedupeState {
  std::vector<uint64_t> epoch;  ///< Writes so far per TP, serial order.
  /// Simple-task identity -> footprint epochs after its last retained run.
  std::map<std::tuple<int, int, int>, std::vector<uint64_t>> last;
  uint64_t deduped = 0;
};

/// Compiles one jvar pass into its task list, in the exact order the
/// serial fixpoint would execute the semi-joins, dropping provable no-op
/// duplicates via `dedupe` (may be shared across passes). The retained
/// list is a static property of the query (gosn/goj/order), independent of
/// BitMat contents.
std::vector<SemiJoinTask> CompilePass(const std::vector<int>& jvar_order,
                                      const Gosn& gosn, const Goj& goj,
                                      const std::vector<int>& canon_group,
                                      DedupeState* dedupe) {
  std::vector<SemiJoinTask> tasks;
  auto retain = [&](SemiJoinTask t) {
    if (t.cluster.empty()) {
      std::vector<uint64_t> snap;
      snap.reserve(t.writes.size() + t.reads.size());
      for (int tp : t.writes) snap.push_back(dedupe->epoch[tp]);
      for (int tp : t.reads) snap.push_back(dedupe->epoch[tp]);
      std::vector<uint64_t>& stored =
          dedupe->last[{t.jvar, t.master, t.slave}];
      if (!stored.empty() && stored == snap) {
        ++dedupe->deduped;
        return;
      }
      for (int tp : t.writes) ++dedupe->epoch[tp];
      snap.clear();
      for (int tp : t.writes) snap.push_back(dedupe->epoch[tp]);
      for (int tp : t.reads) snap.push_back(dedupe->epoch[tp]);
      stored = std::move(snap);
    } else {
      for (int tp : t.writes) ++dedupe->epoch[tp];
    }
    tasks.push_back(std::move(t));
  };
  for (int j : jvar_order) {
    const std::vector<int>& holders = goj.tps_of_jvar()[j];
    for (int master_id : holders) {
      for (int slave_id : holders) {
        if (master_id == slave_id) continue;
        if (!gosn.TpIsMasterOf(master_id, slave_id)) continue;
        SemiJoinTask t;
        t.jvar = j;
        t.master = master_id;
        t.slave = slave_id;
        t.writes = {slave_id};
        t.reads = {master_id};
        retain(std::move(t));
      }
    }
    std::set<int> done_groups;
    for (int tp_id : holders) {
      int group = canon_group[gosn.SupernodeOf(tp_id)];
      if (!done_groups.insert(group).second) continue;
      SemiJoinTask t;
      t.jvar = j;
      for (int other : holders) {
        if (canon_group[gosn.SupernodeOf(other)] == group) {
          t.cluster.push_back(other);
        }
      }
      if (t.cluster.size() < 2) continue;  // ClusteredSemiJoin no-ops below 2
      t.writes = t.cluster;
      retain(std::move(t));
    }
  }
  return tasks;
}

/// List-schedules `tasks` into maximal non-conflicting waves: task i lands
/// one wave after the latest earlier task it conflicts with, so any two
/// conflicting tasks execute in their serial relative order — the property
/// that makes wave execution bit-identical to the serial pass.
std::vector<std::vector<uint32_t>> AssignWaves(
    const std::vector<SemiJoinTask>& tasks, uint64_t* conflicts) {
  std::vector<int> wave_of(tasks.size(), 0);
  int num_waves = tasks.empty() ? 0 : 1;
  for (size_t i = 0; i < tasks.size(); ++i) {
    int w = 0;
    for (size_t k = 0; k < i; ++k) {
      if (TasksConflict(tasks[i], tasks[k])) {
        ++*conflicts;
        w = std::max(w, wave_of[k] + 1);
      }
    }
    wave_of[i] = w;
    num_waves = std::max(num_waves, w + 1);
  }
  std::vector<std::vector<uint32_t>> waves(num_waves);
  for (size_t i = 0; i < tasks.size(); ++i) {
    waves[wave_of[i]].push_back(static_cast<uint32_t>(i));
  }
  return waves;
}

/// Executes a compiled pass wave by wave. Tasks fold/unfold serially
/// inside themselves (pool = nullptr): under waves, parallelism comes from
/// running whole semi-joins side by side, and a nested collective would
/// inline anyway.
void RunPassWaves(const std::vector<SemiJoinTask>& tasks,
                  const std::vector<std::vector<uint32_t>>& waves,
                  const Goj& goj, uint32_t num_common,
                  std::vector<TpState>* tps, ExecContext* ctx,
                  ThreadPool* pool) {
  auto run_task = [&goj, num_common, tps](const SemiJoinTask& t,
                                          ExecContext* task_ctx) {
    const std::string& jvar = goj.jvars()[t.jvar];
    if (!t.cluster.empty()) {
      std::vector<TpState*> cluster;
      cluster.reserve(t.cluster.size());
      for (int tp_id : t.cluster) cluster.push_back(&(*tps)[tp_id]);
      ClusteredSemiJoin(jvar, cluster, num_common, task_ctx, nullptr);
    } else {
      SemiJoin(jvar, &(*tps)[t.slave], (*tps)[t.master], num_common,
               task_ctx, nullptr);
    }
  };
  if (pool == nullptr) {
    for (const std::vector<uint32_t>& wave : waves) {
      for (uint32_t t : wave) run_task(tasks[t], ctx);
    }
    return;
  }
  std::vector<ThreadPool::TaskFn> fns;
  fns.reserve(tasks.size());
  for (const SemiJoinTask& t : tasks) {
    fns.push_back([&run_task, &t](ExecContext* task_ctx, int /*slot*/) {
      run_task(t, task_ctx);
    });
  }
  pool->RunTaskGraph(fns, waves, ctx);
}

}  // namespace

void SemiJoin(const std::string& jvar, TpState* slave, const TpState& master,
              uint32_t num_common, ExecContext* ctx, ThreadPool* pool) {
  // Cancellation granularity of the prune phase: one check per semi-join,
  // in both schedulers (wave tasks land here with their slot's arena, which
  // mirrors the query's control — DESIGN.md §9).
  if (ctx != nullptr) ctx->CheckCancelNow();
  DomainKind slave_kind = slave->mat.KindOf(jvar);
  uint32_t slave_size = DimSize(*slave, jvar);

  ScratchBits beta_s(ctx), mfold_s(ctx), aligned_s(ctx);
  Bitvector& beta = *beta_s;
  slave->mat.bm.FoldInto(slave->mat.DimOf(jvar), &beta, ctx, pool);
  size_t before = beta.Count();

  // fold(BM_master, dim_j) aligned to the slave's domain. Across the
  // fixpoint's two passes most masters are refolded unchanged — the
  // version-stamped memo turns those into word copies.
  Bitvector& mfold = *mfold_s;
  master.mat.bm.FoldInto(master.mat.DimOf(jvar), &mfold, ctx, pool);
  DomainKind master_kind = master.mat.KindOf(jvar);
  const Bitvector* master_fold = &mfold;
  if (master_kind != slave_kind || mfold.size() != slave_size) {
    AlignMaskInto(mfold, master_kind, slave_kind, num_common, slave_size,
                  aligned_s.get());
    master_fold = aligned_s.get();
  }
  beta.And(*master_fold);
  // Cross-domain folds are already truncated at Vso by AlignMask; when the
  // kinds differ the slave-side fold must be truncated too.
  if (master_kind != slave_kind && slave_kind != DomainKind::kPredicate) {
    beta.TruncateBitsFrom(num_common);
  }
  // Unfold only when the intersection actually removed bindings (beta is a
  // subset of the slave's fold, so equal counts mean equal sets).
  if (beta.Count() != before) {
    slave->mat.bm.Unfold(beta, slave->mat.DimOf(jvar), ctx, pool);
  }
}

void ClusteredSemiJoin(const std::string& jvar,
                       const std::vector<TpState*>& cluster,
                       uint32_t num_common, ExecContext* ctx,
                       ThreadPool* pool) {
  if (cluster.size() < 2) return;
  if (ctx != nullptr) ctx->CheckCancelNow();
  // Fold every member once; alignment to each target is a cheap word copy.
  // Members unchanged since their last fold (common on the second fixpoint
  // pass) are served from the fold memo without row iteration.
  std::vector<ScratchBits> folds;
  std::vector<DomainKind> kinds;
  folds.reserve(cluster.size());
  kinds.reserve(cluster.size());
  for (const TpState* member : cluster) {
    folds.emplace_back(ctx);
    member->mat.bm.FoldInto(member->mat.DimOf(jvar), folds.back().get(), ctx,
                            pool);
    kinds.push_back(member->mat.KindOf(jvar));
  }
  ScratchBits beta_s(ctx), aligned_s(ctx);
  for (size_t i = 0; i < cluster.size(); ++i) {
    TpState* target = cluster[i];
    DomainKind kind = kinds[i];
    uint32_t size = DimSize(*target, jvar);
    Bitvector& beta = *beta_s;
    beta.AssignResized(*folds[i], folds[i]->size());
    size_t before = beta.Count();
    bool cross_domain = false;
    for (size_t j = 0; j < cluster.size(); ++j) {
      if (j == i) continue;
      if (kinds[j] == kind && folds[j]->size() == size) {
        beta.And(*folds[j]);
      } else {
        AlignMaskInto(*folds[j], kinds[j], kind, num_common, size,
                      aligned_s.get());
        beta.And(*aligned_s);
        if (kinds[j] != kind) cross_domain = true;
      }
    }
    if (cross_domain && kind != DomainKind::kPredicate) {
      beta.TruncateBitsFrom(num_common);
    }
    if (beta.Count() != before) {
      target->mat.bm.Unfold(beta, target->mat.DimOf(jvar), ctx, pool);
    }
  }
}

void PruneTriples(const JvarOrder& order, const Gosn& gosn, const Goj& goj,
                  uint32_t num_common, std::vector<TpState>* tps,
                  ExecContext* ctx, ThreadPool* pool, SemiJoinSched sched,
                  PruneSchedStats* sched_stats) {
  const std::vector<int> canon_group = CanonicalPeerGroups(gosn);

  if (sched == SemiJoinSched::kWaves) {
    // Compile BOTH passes into one task DAG and wave-schedule the
    // concatenation. No barrier at the pass boundary: any pass-2 task that
    // depends on a pass-1 task's writes conflicts with it by footprint, so
    // the conflict rule already serializes that pair in serial relative
    // order — while pass-2 tasks over disjoint TPs overlap pass 1's tail
    // waves instead of idling behind a full-DAG join. Bit-identical to the
    // split-graph (and serial) schedule for the same reason waves are:
    // every conflicting pair keeps its serial order.
    // Dedupe state spans both passes: the top-down pass re-lists the
    // bottom-up pass's semi-joins, and every one whose footprint no task
    // has written since is a no-op the compiler drops up front.
    DedupeState dedupe;
    dedupe.epoch.assign(tps->size(), 0);
    std::vector<SemiJoinTask> tasks =
        CompilePass(order.order_bu, gosn, goj, canon_group, &dedupe);
    std::vector<SemiJoinTask> td_tasks =
        CompilePass(order.order_td, gosn, goj, canon_group, &dedupe);
    tasks.insert(tasks.end(), std::make_move_iterator(td_tasks.begin()),
                 std::make_move_iterator(td_tasks.end()));
    uint64_t conflicts = 0;
    std::vector<std::vector<uint32_t>> waves = AssignWaves(tasks, &conflicts);
    if (sched_stats != nullptr) {
      sched_stats->tasks += tasks.size();
      sched_stats->waves += waves.size();
      sched_stats->conflicts += conflicts;
      sched_stats->deduped += dedupe.deduped;
    }
    RunPassWaves(tasks, waves, goj, num_common, tps, ctx, pool);
    return;
  }

  auto pass = [&](const std::vector<int>& jvar_order) {
    for (int j : jvar_order) {
      const std::string& jvar = goj.jvars()[j];
      const std::vector<int>& holders = goj.tps_of_jvar()[j];

      // Master -> slave semi-joins (Alg 3.2 lines 2-5): every slave TP takes
      // the master TP's restrictions on the jvar.
      for (int master_id : holders) {
        for (int slave_id : holders) {
          if (master_id == slave_id) continue;
          if (!gosn.TpIsMasterOf(master_id, slave_id)) continue;
          SemiJoin(jvar, &(*tps)[slave_id], (*tps)[master_id], num_common,
                   ctx, pool);
        }
      }

      // Clustered semi-joins per peer group (lines 6-8): TPs holding the
      // jvar whose supernodes are the same or peers.
      std::set<int> done_groups;
      for (int tp_id : holders) {
        int group = canon_group[gosn.SupernodeOf(tp_id)];
        if (!done_groups.insert(group).second) continue;
        std::vector<TpState*> cluster;
        for (int other : holders) {
          if (canon_group[gosn.SupernodeOf(other)] == group) {
            cluster.push_back(&(*tps)[other]);
          }
        }
        ClusteredSemiJoin(jvar, cluster, num_common, ctx, pool);
      }
    }
  };
  pass(order.order_bu);
  pass(order.order_td);
}

}  // namespace lbr
