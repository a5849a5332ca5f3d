#include "core/prune.h"

#include <set>

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

}  // namespace

void SemiJoin(const std::string& jvar, TpState* slave, const TpState& master,
              uint32_t num_common, ExecContext* ctx) {
  // Cancellation granularity of the prune phase: one check per semi-join
  // (DESIGN.md §9).
  if (ctx != nullptr) ctx->CheckCancelNow();
  DomainKind slave_kind = slave->mat.KindOf(jvar);
  uint32_t slave_size = DimSize(*slave, jvar);

  ScratchBits beta_s(ctx), mfold_s(ctx), aligned_s(ctx);
  Bitvector& beta = *beta_s;
  slave->mat.bm.FoldInto(slave->mat.DimOf(jvar), &beta, ctx);
  size_t before = beta.Count();

  // fold(BM_master, dim_j) aligned to the slave's domain. Across the
  // fixpoint's two passes most masters are refolded unchanged — the fold
  // memo turns those into word copies.
  Bitvector& mfold = *mfold_s;
  master.mat.bm.FoldInto(master.mat.DimOf(jvar), &mfold, ctx);
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
    slave->mat.bm.Unfold(beta, slave->mat.DimOf(jvar), ctx);
  }
}

void ClusteredSemiJoin(const std::string& jvar,
                       const std::vector<TpState*>& cluster,
                       uint32_t num_common, ExecContext* ctx) {
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
    member->mat.bm.FoldInto(member->mat.DimOf(jvar), folds.back().get(), ctx);
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
      target->mat.bm.Unfold(beta, target->mat.DimOf(jvar), ctx);
    }
  }
}

void PruneTriples(const JvarOrder& order, const Gosn& gosn, const Goj& goj,
                  uint32_t num_common, std::vector<TpState>* tps,
                  ExecContext* ctx) {
  const std::vector<int> canon_group = CanonicalPeerGroups(gosn);

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
                   ctx);
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
        ClusteredSemiJoin(jvar, cluster, num_common, ctx);
      }
    }
  };
  pass(order.order_bu);
  pass(order.order_td);
}

}  // namespace lbr
