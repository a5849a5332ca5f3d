#include "core/multiway_join.h"

#include <algorithm>
#include <optional>
#include <set>

#include "bitmat/tp_loader.h"
#include "core/nullification.h"
#include "sparql/filter_eval.h"
#include "util/bitops.h"

namespace lbr {

namespace {

/// Predicate-domain locals never align with subject/object locals (the
/// Section 5 limitation); a constraint across that divide is skipped —
/// dropping a constraint is always sound, and the per-bit path handles
/// the mismatch one level down (ToLocal -> kImpossible -> rollback).
inline bool KindsCompatible(DomainKind a, DomainKind b) {
  return (a == DomainKind::kPredicate) == (b == DomainKind::kPredicate);
}

/// Candidate count below which an enumeration filters inline (a mask probe
/// plus bound-row Tests per candidate, no position buffer) instead of the
/// buffered word-parallel path. Purely a cost knob — every path visits the
/// same candidates in the same order.
constexpr uint64_t kBufferedThreshold = 64;

/// Position count at which FilterPositions switches from per-position
/// Test probes against a transposed column to extracting the column once
/// (lazy transpose cache) and merging it through the candidate list.
constexpr size_t kTightMaterializeThreshold = 64;

/// Candidate-set ∧ mask → positions, for either candidate container.
inline void AppendIntersection(const Bitvector& cands, const Bitvector& mask,
                               std::vector<uint32_t>* out) {
  cands.AppendAndSetBits(mask, out);
}
inline void AppendIntersection(const CompressedRow& cands,
                               const Bitvector& mask,
                               std::vector<uint32_t>* out) {
  cands.AppendMaskedPositions(mask, out);
}


}  // namespace

MultiwayJoin::MultiwayJoin(const Gosn& gosn, const GlobalIds& ids,
                           const Dictionary& dict, std::vector<TpState>* tps,
                           std::vector<int> stps_order, Options options)
    : gosn_(gosn),
      ids_(ids),
      dict_(dict),
      tps_(tps),
      stps_(std::move(stps_order)),
      options_(std::move(options)) {
  // Variable table: every variable of every TP plus filter variables,
  // sorted for a deterministic column order. The sorted vector doubles as
  // the lookup structure: VarIndex binary-searches it.
  std::set<std::string> vars;
  for (const TpState& tp : *tps_) {
    for (const std::string& v : tp.tp.Vars()) vars.insert(v);
  }
  for (const ScopedFilter& f : options_.filters) {
    f.expr.CollectVars(&vars);
  }
  var_names_.assign(vars.begin(), vars.end());

  row_var_of_tp_.assign(tps_->size(), -1);
  col_var_of_tp_.assign(tps_->size(), -1);
  for (size_t i = 0; i < tps_->size(); ++i) {
    const TpBitMat& mat = (*tps_)[i].mat;
    if (!mat.row_var.empty()) row_var_of_tp_[i] = VarIndex(mat.row_var);
    if (!mat.col_var.empty()) col_var_of_tp_[i] = VarIndex(mat.col_var);
  }

  vmap_.assign(var_names_.size(), {});
  visited_.assign(tps_->size(), false);
  transpose_cache_.resize(tps_->size());
  static_masks_.resize(tps_->size());

  // Per variable: the absolute-master TPs that constrain it (only masters
  // may prune candidates — a candidate they reject rolls the branch back
  // with zero emissions, Alg 5.4 line 27-28, so skipping it up front
  // removes recursion work without changing any emitted row; a slave TP's
  // miss produces a NULL binding, not a rollback).
  masters_of_var_.assign(var_names_.size(), {});
  for (const TpState& tp : *tps_) {
    if (!gosn_.IsAbsoluteMaster(tp.sn_id)) continue;
    for (size_t v = 0; v < var_names_.size(); ++v) {
      if (!tp.mat.HasVar(var_names_[v])) continue;
      MasterConstraint mc;
      mc.tp_id = tp.tp_id;
      mc.vdim = tp.mat.DimOf(var_names_[v]);
      mc.kind = tp.mat.KindOf(var_names_[v]);
      if (mc.vdim == Dim::kRow) {
        mc.other_var = col_var_of_tp_[tp.tp_id];
        mc.other_kind = tp.mat.col_kind;
      } else {
        mc.other_var = row_var_of_tp_[tp.tp_id];
        mc.other_kind = tp.mat.row_kind;
      }
      masters_of_var_[v].push_back(mc);
    }
  }

  // Per TP: the variables whose FirstEntry values determine its expansion
  // (the slave-memo key, DESIGN.md §8): its own row/col vars, plus the
  // other-dimension var of every absolute master constraining them (those
  // feed the bound-row checks of the candidate intersection). Everything
  // else the enumeration reads — the BitMats, the static fold masks, the
  // id mapping — is invariant within one Run.
  memo_vars_.assign(tps_->size(), {});
  slave_memo_.resize(tps_->size());
  for (size_t t = 0; t < tps_->size(); ++t) {
    std::vector<MemoVar>& mv = memo_vars_[t];
    auto add = [&mv](int v, int guard) {
      if (v < 0) return;
      for (const MemoVar& existing : mv) {
        // An unguarded entry already carries the value unconditionally; a
        // duplicate (var, guard) pair adds nothing.
        if (existing.var == v && (existing.guard < 0 || existing.guard == guard))
          return;
      }
      mv.push_back(MemoVar{v, guard});
    };
    // Own dimensions first (always keyed), then the masters' other-vars,
    // each guarded by the dimension it constrains: PrepareBoundChecks is
    // only consulted while that dimension is free.
    for (int var : {row_var_of_tp_[t], col_var_of_tp_[t]}) add(var, -1);
    for (int var : {row_var_of_tp_[t], col_var_of_tp_[t]}) {
      if (var < 0) continue;
      for (const MasterConstraint& mc : masters_of_var_[var]) {
        add(mc.other_var, var);
      }
    }
  }
}

int MultiwayJoin::VarIndex(const std::string& name) const {
  auto it = std::lower_bound(var_names_.begin(), var_names_.end(), name);
  if (it == var_names_.end() || *it != name) return -1;
  return static_cast<int>(it - var_names_.begin());
}

const MultiwayJoin::Entry* MultiwayJoin::FirstEntry(int var) const {
  if (var < 0 || vmap_[var].empty()) return nullptr;
  return &vmap_[var].front();
}

const CompressedRow& MultiwayJoin::TransposedColumn(int tp_id, uint32_t col) {
  static const CompressedRow kEmptyRow;
  const BitMat& bm = (*tps_)[tp_id].mat.bm;
  TransposeCache& tc = transpose_cache_[tp_id];
  if (!tc.valid || tc.version != bm.version()) {
    // First use, or the source mutated between Runs: start a fresh entry.
    tc.valid = true;
    tc.version = bm.version();
    tc.full = false;
    tc.full_mat = BitMat();
    tc.cols.clear();
  }
  if (tc.full) return tc.full_mat.Row(col);
  auto it = std::lower_bound(
      tc.cols.begin(), tc.cols.end(), col,
      [](const std::pair<uint32_t, BitMat::RowHandle>& e, uint32_t c) {
        return e.first < c;
      });
  if (it == tc.cols.end() || it->first != col) {
    // A column miss costs an O(rows) scan (or a whole transpose below) with
    // no RecurseOn in between — the bound-column pathology can chain
    // thousands of these, so the build path needs its own check.
    if (ctx_ != nullptr) ctx_->CheckCancel();
    if (tc.cols.size() >= options_.lazy_transpose_threshold) {
      // Enough distinct columns visited that finishing the whole transpose
      // beats further per-column row scans.
      tc.full_mat = bm.Transposed();
      tc.full = true;
      // Memory accounting point: a full transpose holds roughly the source
      // matrix's payload again (set-bit-proportional compressed rows).
      if (ctx_ != nullptr) ctx_->ChargeMemory(bm.Count() / 4 + 256);
      ++transpose_full_builds_;
      tc.cols.clear();
      tc.cols.shrink_to_fit();
      return tc.full_mat.Row(col);
    }
    ScratchPositions pos(ctx_);
    bm.AppendColumnPositions(col, pos.get());
    BitMat::RowHandle handle =
        pos->empty() ? nullptr
                     : std::make_shared<const CompressedRow>(
                           CompressedRow::FromPositions(*pos));
    if (ctx_ != nullptr) {
      ctx_->ChargeMemory(pos->size() * sizeof(uint32_t) + 64);
    }
    it = tc.cols.insert(it, {col, std::move(handle)});
    ++transpose_cols_built_;
  }
  // The returned reference aims at the shared pointee, which inserts into
  // (and moves within) tc.cols never relocate.
  return it->second != nullptr ? *it->second : kEmptyRow;
}

const Bitvector* MultiwayJoin::StaticFoldMask(int var, int chosen_tp,
                                              Dim dim, DomainKind dst_kind,
                                              uint32_t dst_size) {
  if (var < 0) return nullptr;
  StaticMask& sm = static_masks_[chosen_tp][static_cast<size_t>(dim)];
  if (sm.built && sm.validated_run != run_seq_) {
    // Version check against every folded contributor: a mutation between
    // Runs orphans the entry. (An early-stopped build recorded only the
    // folds it consumed — the mask is their intersection, a sound superset
    // of the full one, and stays valid while exactly they are unchanged.)
    // BitMats never mutate mid-Run, so one validation covers the Run.
    for (const auto& [tp_id, version] : sm.sources) {
      if ((*tps_)[tp_id].mat.bm.version() != version) {
        sm.built = false;
        break;
      }
    }
  }
  if (!sm.built) {
    sm.built = true;
    sm.restricted = false;
    sm.inert = false;
    sm.sources.clear();
    sm.unit_verified = 0;
    // The visited state is irrelevant here: a visited TP binds its
    // variables, and this mask is only consulted while `var` is free — so
    // every master in masters_of_var_ is necessarily unvisited then.
    ScratchBits src(ctx_), aligned(ctx_);
    for (const MasterConstraint& mc : masters_of_var_[var]) {
      if (mc.tp_id == chosen_tp) continue;
      if (!KindsCompatible(mc.kind, dst_kind)) continue;
      // The fold over var's dimension — row folds are the free
      // NonEmptyRows metadata, column folds hit the BitMat's memo.
      (*tps_)[mc.tp_id].mat.bm.FoldInto(mc.vdim, src.get(), ctx_);
      sm.sources.emplace_back(mc.tp_id, (*tps_)[mc.tp_id].mat.bm.version());
      if (mc.other_var < 0 && mc.tp_id < 64) {
        // Unit TP: its fold IS its column-0 content (the probed bit), so
        // this mask's pass exactly implies its probe's hit.
        sm.unit_verified |= uint64_t{1} << mc.tp_id;
      }
      if (!sm.restricted) {
        AlignMaskInto(*src, mc.kind, dst_kind, ids_.num_common, dst_size,
                      &sm.mask);
        sm.restricted = true;
      } else {
        AlignMaskInto(*src, mc.kind, dst_kind, ids_.num_common, dst_size,
                      aligned.get());
        sm.mask.And(*aligned);
      }
      if (sm.mask.None()) break;  // nothing can survive; stop refining
    }
    // Pass-rate check against the chosen TP's own candidate population
    // (its fold over this dimension — raw domain density would mislead:
    // candidates correlate with populated entities). A mask that passes
    // nearly every real candidate cannot pay for its per-node AND; the
    // bound-row filtering still applies without it.
    if (sm.restricted) {
      const BitMat& cbm = (*tps_)[chosen_tp].mat.bm;
      ScratchBits own(ctx_);
      cbm.FoldInto(dim, own.get(), ctx_);
      uint64_t total = own->Count();
      own->And(sm.mask);
      uint64_t pass = own->Count();
      sm.inert = total > 0 && pass * 8 >= total * 7;
      // The inert decision depends on the chosen TP's own fold, so its
      // version is a staleness source too.
      sm.sources.emplace_back(chosen_tp, cbm.version());
    }
  }
  sm.validated_run = run_seq_;
  if (sm.restricted && !sm.inert) {
    // This mask WILL be applied to every candidate the caller enumerates,
    // so its unit contributors' probes become guaranteed hits.
    enum_verified_masters_ |= sm.unit_verified;
    return &sm.mask;
  }
  return nullptr;
}

int MultiwayJoin::PrepareBoundChecks(
    int var, int chosen_tp, DomainKind dst_kind,
    std::array<BoundCheck, kMaxBoundChecks>* out) {
  int n = 0;
  for (const MasterConstraint& mc : masters_of_var_[var]) {
    if (n == kMaxBoundChecks) break;  // a constraint subset is still sound
    if (mc.tp_id == chosen_tp || visited_[mc.tp_id]) continue;
    // Only TPs whose other dimension is already bound add anything beyond
    // the static fold mask; diagonal TPs (other_var == var, free here)
    // are covered by their fold.
    if (mc.other_var < 0 || mc.other_var == var) continue;
    if (!KindsCompatible(mc.kind, dst_kind)) continue;
    const Entry* e = FirstEntry(mc.other_var);
    if (e == nullptr) continue;
    std::optional<uint32_t> bound;
    if (e->value != kNullBinding) {
      bound = ids_.ToLocal(mc.other_kind, e->value);
    }
    // A master whose bound side is NULL or outside its domain (or whose
    // bound row is empty) can never match: the whole branch will roll
    // back, so no candidate survives.
    if (!bound) return -1;
    BoundCheck& bc = (*out)[n];
    bc.tp_id = mc.tp_id;
    bc.bm = &(*tps_)[mc.tp_id].mat.bm;
    bc.row = mc.vdim == Dim::kCol ? &bc.bm->Row(*bound) : nullptr;
    bc.bound = *bound;
    bc.cross = mc.kind != dst_kind;
    if (bc.row != nullptr && bc.row->IsEmpty()) return -1;
    ++n;
  }
  return n;
}

bool MultiwayJoin::PassesBoundChecks(
    const std::array<BoundCheck, kMaxBoundChecks>& checks, int n,
    uint32_t p) const {
  for (int i = 0; i < n; ++i) {
    const BoundCheck& bc = checks[i];
    if (bc.cross && p >= ids_.num_common) return false;
    if (bc.row != nullptr ? !bc.row->Test(p) : !bc.bm->Test(p, bc.bound)) {
      return false;
    }
  }
  return true;
}

void MultiwayJoin::FilterPositions(
    const std::array<BoundCheck, kMaxBoundChecks>& checks, int n,
    std::vector<uint32_t>* positions) {
  for (int i = 0; i < n && !positions->empty(); ++i) {
    const BoundCheck& bc = checks[i];
    if (bc.cross) {
      // Cross-domain S/O constraint: only candidates in the shared Vso
      // range can match; the list is sorted, so this is one binary search.
      auto cut = std::lower_bound(positions->begin(), positions->end(),
                                  ids_.num_common);
      positions->erase(cut, positions->end());
    }
    if (bc.row != nullptr) {
      // Candidates and the constraint row live in the same sorted space:
      // one linear merge over the compressed sequences, no per-candidate
      // search, no materialization.
      bc.row->IntersectSortedPositions(positions);
    } else if (positions->size() >= kTightMaterializeThreshold) {
      // Var on the TP's rows: the constraint is a column. Decode it once
      // through the lazy transpose cache, then merge.
      TransposedColumn(bc.tp_id, bc.bound).IntersectSortedPositions(positions);
    } else {
      // A handful of candidates: direct bit tests beat extracting the
      // column (which walks every populated row).
      size_t kept = 0;
      for (uint32_t p : *positions) {
        if (bc.bm->Test(p, bc.bound)) (*positions)[kept++] = p;
      }
      positions->resize(kept);
    }
  }
}

uint64_t MultiwayJoin::Run(const Sink& sink, ExecContext* ctx) {
  sink_ = sink;
  ctx_ = ctx;
  emitted_ = 0;
  ++run_seq_;  // re-arms the once-per-Run static-mask version validation
  pair_blocks_.resize(stps_.size());
  // The memo is valid only while the BitMats are: prune mutates them
  // between Runs, so every Run starts cold (no version stamps needed);
  // the probation counters restart with it — a signature distribution
  // that never repeated under one pruning state may repeat under another.
  for (SlaveMemoState& memo : slave_memo_) {
    memo.map.clear();
    memo.hits = 0;
    memo.misses = 0;
    memo.disabled = false;
  }
  if (!tps_->empty()) Recurse(0);
  ctx_ = nullptr;
  return emitted_;
}

std::vector<int> MultiwayJoin::MasterColumns() const {
  std::vector<int> cols;
  for (size_t i = 0; i < var_names_.size(); ++i) {
    bool in_master = false;
    for (const TpState& tp : *tps_) {
      if (gosn_.IsAbsoluteMaster(tp.sn_id) &&
          tp.tp.UsesVar(var_names_[i])) {
        in_master = true;
        break;
      }
    }
    if (in_master) cols.push_back(static_cast<int>(i));
  }
  return cols;
}

void MultiwayJoin::VisitWith(const TpState& tp, uint64_t row_value,
                             uint64_t col_value, size_t visited_count) {
  int rv = row_var_of_tp_[tp.tp_id];
  int cv = col_var_of_tp_[tp.tp_id];
  if (rv >= 0) vmap_[rv].push_back(Entry{tp.tp_id, row_value});
  if (cv >= 0 && cv != rv) vmap_[cv].push_back(Entry{tp.tp_id, col_value});
  visited_[tp.tp_id] = true;
  Recurse(visited_count + 1);
  visited_[tp.tp_id] = false;
  if (rv >= 0) vmap_[rv].pop_back();
  if (cv >= 0 && cv != rv) vmap_[cv].pop_back();
}

void MultiwayJoin::VisitNull(const TpState& tp, size_t visited_count) {
  int rv = row_var_of_tp_[tp.tp_id];
  int cv = col_var_of_tp_[tp.tp_id];
  if (rv >= 0) vmap_[rv].push_back(Entry{tp.tp_id, kNullBinding});
  if (cv >= 0 && cv != rv) vmap_[cv].push_back(Entry{tp.tp_id, kNullBinding});
  visited_[tp.tp_id] = true;
  Recurse(visited_count + 1);
  visited_[tp.tp_id] = false;
  if (rv >= 0) vmap_[rv].pop_back();
  if (cv >= 0 && cv != rv) vmap_[cv].pop_back();
}

bool MultiwayJoin::ProbeBoundAndVisit(const TpState& tp, int rv, int cv,
                                      const Entry* re, const Entry* ce,
                                      size_t visited_count) {
  // Mirrors the bound cases of EnumerateMatches exactly: NULL or
  // out-of-domain bindings can match no triple, and the emitted values are
  // the local-id round trips the generic path produces.
  const BitMat& bm = tp.mat.bm;
  if (re->value == kNullBinding) return false;
  std::optional<uint32_t> rl = ids_.ToLocal(tp.mat.row_kind, re->value);
  if (!rl) return false;
  if (cv < 0) {  // single-variable TP: bits live at (row, 0)
    if (!bm.Test(*rl, 0)) return false;
    VisitWith(tp, ids_.ToGlobal(tp.mat.row_kind, *rl), 0, visited_count);
    return true;
  }
  if (cv == rv) {  // diagonal (?x p ?x): enforced at load time
    if (!bm.Test(*rl, *rl)) return false;
    VisitWith(tp, ids_.ToGlobal(tp.mat.row_kind, *rl),
              ids_.ToGlobal(tp.mat.col_kind, *rl), visited_count);
    return true;
  }
  if (ce->value == kNullBinding) return false;
  std::optional<uint32_t> cl = ids_.ToLocal(tp.mat.col_kind, ce->value);
  if (!cl || !bm.Test(*rl, *cl)) return false;
  VisitWith(tp, ids_.ToGlobal(tp.mat.row_kind, *rl),
            ids_.ToGlobal(tp.mat.col_kind, *cl), visited_count);
  return true;
}

void MultiwayJoin::Recurse(size_t visited_count) {
  if (visited_count == stps_.size()) {
    Emit();
    return;
  }
  RecurseOn(ChooseNextTp(), visited_count);
}

int MultiwayJoin::ChooseNextTp() const {
  // Pick the first non-visited TP (in stps order) with at least one bound
  // variable; variable-free TPs qualify immediately; with nothing bound yet
  // (the very first call) the first TP is taken (Alg 5.4 lines 6-11).
  int chosen = -1;
  int fallback = -1;
  for (int tp_id : stps_) {
    if (visited_[tp_id]) continue;
    if (fallback == -1) fallback = tp_id;
    int rv = row_var_of_tp_[tp_id];
    int cv = col_var_of_tp_[tp_id];
    if (rv < 0 && cv < 0) {
      chosen = tp_id;  // existence guard
      break;
    }
    if ((rv >= 0 && FirstEntry(rv) != nullptr) ||
        (cv >= 0 && FirstEntry(cv) != nullptr)) {
      chosen = tp_id;
      break;
    }
  }
  return chosen == -1 ? fallback : chosen;
}

void MultiwayJoin::RecurseOn(int chosen, size_t visited_count) {
  // Cancellation granularity of the join: every recursion node (per-pair,
  // block, and memo-replay modes all descend through here), so abort
  // latency is bounded by one enumeration step, and a detached control
  // costs a single pointer test (DESIGN.md §9).
  if (ctx_ != nullptr) ctx_->CheckCancel();
  const TpState& tp = (*tps_)[chosen];
  const bool is_abs_master = gosn_.IsAbsoluteMaster(tp.sn_id);
  const bool has_vars =
      row_var_of_tp_[chosen] >= 0 || col_var_of_tp_[chosen] >= 0;

  if (options_.enum_mode != JoinEnumMode::kBlock || !has_vars) {
    // Per-pair descent: each match pushes, recurses, and pops immediately
    // (the kIntersect / kPerBit shapes, and variable-free TPs everywhere).
    bool matched = EnumerateMatches(chosen, [&](uint64_t rw, uint64_t cl) {
      VisitWith(tp, rw, cl, visited_count);
    });
    if (!matched) {
      if (is_abs_master) return;  // Alg 5.4 line 27-28: rollback.
      VisitNull(tp, visited_count);
    }
    return;
  }

  // Fully-bound TP (every variable dimension already carries a binding):
  // at most one pair can match, so the block buffer and the slave memo are
  // pure overhead on top of a single bit probe. This is the leaf shape of
  // every cyclic master web — the hottest call in the recursion tree.
  {
    const int rv = row_var_of_tp_[chosen];
    const int cv = col_var_of_tp_[chosen];
    const Entry* re = rv >= 0 ? FirstEntry(rv) : nullptr;
    const Entry* ce = cv >= 0 && cv != rv ? FirstEntry(cv) : nullptr;
    if (rv >= 0 && re != nullptr && (cv < 0 || cv == rv || ce != nullptr)) {
      if (!ProbeBoundAndVisit(tp, rv, cv, re, ce, visited_count)) {
        if (is_abs_master) return;  // Alg 5.4 line 27-28: rollback.
        VisitNull(tp, visited_count);
      }
      return;
    }
  }

  if (is_abs_master) {
    // Block descent: materialize the surviving matches, then iterate them
    // with the binding bookkeeping and child selection hoisted out of the
    // per-candidate path. An empty block is the rollback case.
    std::vector<BindingPair>& block = pair_blocks_[visited_count];
    block.clear();
    EnumerateMatches(chosen, [&block](uint64_t rw, uint64_t cl) {
      block.push_back(BindingPair{rw, cl});
    });
    if (block.empty()) return;
    ++enum_blocks_;
    // Snapshot before descending: deeper enumerations overwrite the scratch.
    VisitBlock(tp, block, visited_count, enum_verified_masters_);
    return;
  }

  // Slave TP: must stay per-bit (a miss binds NULL instead of rolling
  // back, DESIGN.md §6), so the block lever here is memoization — the
  // expansion is fully determined by the memo_vars_ binding signature, and
  // the same signature recurs across the iterations of enclosing blocks.
  SlaveMemoState& memo = slave_memo_[chosen];
  if (memo.disabled) {
    // Probation verdict was "signatures don't repeat here": stream the
    // expansion per-pair with no key build, no hashing, no buffering.
    bool matched = EnumerateMatches(chosen, [&](uint64_t rw, uint64_t cl) {
      VisitWith(tp, rw, cl, visited_count);
    });
    if (!matched) VisitNull(tp, visited_count);
    return;
  }
  std::vector<uint64_t>& key = memo_key_scratch_;
  key.clear();
  for (const MemoVar& mv : memo_vars_[chosen]) {
    if (mv.guard >= 0 && FirstEntry(mv.guard) != nullptr) {
      // The guarded master check only runs while `guard` is free; with the
      // dimension bound this var cannot influence the expansion, so a
      // fixed placeholder keeps equal expansions on one key.
      key.push_back(kFreeBinding);
      continue;
    }
    const Entry* e = FirstEntry(mv.var);
    key.push_back(e == nullptr ? kFreeBinding : e->value);
  }
  auto it = memo.map.find(key);
  if (it != memo.map.end()) {
    ++memo.hits;
    ++slave_memo_hits_;
    ReplayPairs(tp, it->second, visited_count);
    return;
  }
  ++memo.misses;
  ++slave_memo_misses_;
  std::vector<BindingPair>& block = pair_blocks_[visited_count];
  block.clear();
  EnumerateMatches(chosen, [&block](uint64_t rw, uint64_t cl) {
    block.push_back(BindingPair{rw, cl});
  });
  if (memo.map.size() < kSlaveMemoMaxKeys &&
      block.size() <= kSlaveMemoMaxPairs) {
    // Memory accounting point (DESIGN.md §9): a retained expansion costs
    // its key plus its pair list; charged against the query's budget.
    if (ctx_ != nullptr) {
      ctx_->ChargeMemory(key.size() * sizeof(uint64_t) +
                         block.size() * sizeof(BindingPair) + 64);
    }
    memo.map.emplace(std::move(key), block);
  }
  if (memo.misses >= kSlaveMemoProbationMisses &&
      memo.hits * 8 < memo.misses) {
    memo.disabled = true;
    memo.map = SlaveMemo();  // release the buckets, not just the entries
  }
  ReplayPairs(tp, block, visited_count);
}

template <typename Cands, typename Visit>
void MultiwayJoin::EnumeratePrepared(
    const Cands& cands, uint32_t size, uint64_t approx_count,
    const Bitvector* sm,
    const std::array<BoundCheck, kMaxBoundChecks>& checks, int nchecks,
    Visit&& visit) {
  if (approx_count < kBufferedThreshold) {
    cands.ForEachSetBit([&](uint32_t p) {
      ++enum_candidates_;
      if (sm != nullptr && !(p < sm->size() && sm->Get(p))) {
        ++enum_pruned_static_;
        return;
      }
      if (!PassesBoundChecks(checks, nchecks, p)) {
        ++enum_pruned_bound_;
        return;
      }
      visit(p);
    });
    return;
  }
  ScratchPositions pos(ctx_);
  uint64_t seen = 0;
  if (sm == nullptr) {
    cands.AppendSetBits(pos.get());
    seen = pos->size();
  } else if (approx_count < size / bitops::kWordBits) {
    // Sparse candidates: probing the mask per candidate beats a word
    // AND across the whole domain.
    cands.ForEachSetBit([&](uint32_t p) {
      ++seen;
      if (p < sm->size() && sm->Get(p)) pos->push_back(p);
    });
  } else {
    // Exact population (approx_count is only an upper-bound heuristic for
    // bit-array candidates: BitMat::Count() counts triples, not rows).
    seen = cands.Count();
    AppendIntersection(cands, *sm, pos.get());
  }
  enum_candidates_ += seen;
  enum_pruned_static_ += seen - pos->size();
  size_t after_static = pos->size();
  FilterPositions(checks, nchecks, pos.get());
  enum_pruned_bound_ += after_static - pos->size();
  for (uint32_t p : *pos) visit(p);
}

bool MultiwayJoin::PrepareChildEnum(int child, int parent_rv, int parent_cv,
                                    PreparedChildEnum* out) {
  if (child < 0 || !gosn_.IsAbsoluteMaster((*tps_)[child].sn_id)) {
    return false;
  }
  const TpState& ctp = (*tps_)[child];
  const int crv = row_var_of_tp_[child];
  const int ccv = col_var_of_tp_[child];
  // Two distinct variable dimensions, exactly one of them still free —
  // unit, diagonal, and fully-bound shapes go through the probe/fusion
  // paths; both-free cannot happen (ChooseNextTp picks a TP with a bound
  // variable once anything is bound).
  if (crv < 0 || ccv < 0 || crv == ccv) return false;
  // -2 = free, 0 = pair.row, 1 = pair.col, 2 = ancestor-fixed.
  uint64_t rfixg = 0, cfixg = 0;
  auto side_source = [&](int var, uint64_t* fixed_global) -> int {
    if (var == parent_rv) return 0;
    if (var == parent_cv) return 1;
    const Entry* e = FirstEntry(var);
    if (e == nullptr) return -2;
    *fixed_global = e->value;
    return 2;
  };
  const int rs = side_source(crv, &rfixg);
  const int cs = side_source(ccv, &cfixg);
  if ((rs == -2) == (cs == -2)) return false;  // need exactly one free side
  out->child = child;
  out->impossible = false;
  int fv;  // the free variable
  if (cs == -2) {
    out->bound_dim = Dim::kRow;
    out->bound_kind = ctp.mat.row_kind;
    out->free_dim = Dim::kCol;
    out->free_size = ctp.mat.bm.num_cols();
    out->bsrc = rs;
    fv = ccv;
    if (rs == 2) {
      if (rfixg == kNullBinding) {
        out->impossible = true;  // resolve(): kImpossible for every pair
        return true;
      }
      std::optional<uint32_t> l = ids_.ToLocal(out->bound_kind, rfixg);
      if (!l) {
        out->impossible = true;
        return true;
      }
      out->bound_local = *l;
    }
  } else {
    out->bound_dim = Dim::kCol;
    out->bound_kind = ctp.mat.col_kind;
    out->free_dim = Dim::kRow;
    out->free_size = ctp.mat.bm.num_rows();
    out->bsrc = cs;
    fv = crv;
    if (cs == 2) {
      if (cfixg == kNullBinding) {
        out->impossible = true;
        return true;
      }
      std::optional<uint32_t> l = ids_.ToLocal(out->bound_kind, cfixg);
      if (!l) {
        out->impossible = true;
        return true;
      }
      out->bound_local = *l;
    }
  }
  const DomainKind free_kind =
      out->free_dim == Dim::kRow ? ctp.mat.row_kind : ctp.mat.col_kind;
  // The static mask: one build/version check for the whole block. The call
  // records its unit contributors in enum_verified_masters_ (scratch);
  // capture them for the grandchild fusion.
  enum_verified_masters_ = 0;
  out->sm = StaticFoldMask(fv, child, out->free_dim, free_kind,
                           out->free_size);
  out->verified = enum_verified_masters_;
  // The bound-check list, mirroring PrepareBoundChecks' order, skips, and
  // cap exactly: ancestor-bound checks resolve once here; checks bound by
  // the iterated pair record which side to re-translate per pair.
  int n = 0;
  for (const MasterConstraint& mc : masters_of_var_[fv]) {
    if (n == kMaxBoundChecks) break;
    if (mc.tp_id == child || visited_[mc.tp_id]) continue;
    if (mc.other_var < 0 || mc.other_var == fv) continue;
    if (!KindsCompatible(mc.kind, free_kind)) continue;
    BoundCheck& bc = out->bcs[n];
    PreparedChildEnum::Src& src = out->srcs[n];
    bc.tp_id = mc.tp_id;
    bc.bm = &(*tps_)[mc.tp_id].mat.bm;
    bc.cross = mc.kind != free_kind;
    bc.row = nullptr;  // pair-dependent kCol checks rewrite it per pair
    bc.bound = 0;
    src.other_kind = mc.other_kind;
    src.vdim = mc.vdim;
    if (mc.other_var == parent_rv) {
      src.src = 0;
    } else if (mc.other_var == parent_cv) {
      src.src = 1;
    } else {
      const Entry* e = FirstEntry(mc.other_var);
      if (e == nullptr) continue;  // unbound: adds nothing (same skip)
      src.src = 2;
      std::optional<uint32_t> bound;
      if (e->value != kNullBinding) bound = ids_.ToLocal(mc.other_kind, e->value);
      if (!bound) {
        // PrepareBoundChecks returns -1: the child can never match, every
        // pair of the block rolls back.
        out->impossible = true;
        return true;
      }
      bc.bound = *bound;
      bc.row = mc.vdim == Dim::kCol ? &bc.bm->Row(*bound) : nullptr;
      if (bc.row != nullptr && bc.row->IsEmpty()) {
        out->impossible = true;
        return true;
      }
    }
    if (bc.tp_id < 64) out->verified |= uint64_t{1} << bc.tp_id;
    ++n;
  }
  out->nchecks = n;
  return true;
}

void MultiwayJoin::VisitBlock(const TpState& tp,
                              const std::vector<BindingPair>& block,
                              size_t visited_count,
                              uint64_t verified_masters) {
  const int rv = row_var_of_tp_[tp.tp_id];
  const int cv = col_var_of_tp_[tp.tp_id];
  const bool has_cv = cv >= 0 && cv != rv;
  // Entries are addressed by index, not pointer: deeper descents push onto
  // the same per-var stacks and may reallocate them.
  size_t ri = 0, ci = 0;
  if (rv >= 0) {
    vmap_[rv].push_back(Entry{tp.tp_id, 0});
    ri = vmap_[rv].size() - 1;
  }
  if (has_cv) {
    vmap_[cv].push_back(Entry{tp.tp_id, 0});
    ci = vmap_[cv].size() - 1;
  }
  visited_[tp.tp_id] = true;
  if (visited_count + 1 == stps_.size()) {
    // Leaf block: every pair is a result row.
    for (const BindingPair& p : block) {
      if (rv >= 0) vmap_[rv][ri].value = p.row;
      if (has_cv) vmap_[cv][ci].value = p.col;
      Emit();
    }
  } else {
    // The child choice reads visited_ flags and binding presence only —
    // both fixed for the whole block now that the entries are pushed.
    const int child = ChooseNextTp();
    // Probe elision: if the child is an absolute master whose bound check
    // filtered every pair of this block, and our entries leave it fully
    // bound, its probe would re-test the exact bit the check already
    // proved — a guaranteed hit. Bind the child's entries in place and
    // descend two levels per iteration, skipping the probe entirely.
    // Each child dimension's value is either one side of the iterated
    // pair (the variable this TP binds) or a fixed ancestor binding.
    // Sources: 0 = p.row, 1 = p.col, 2 = fixed.
    int crv = -1, ccv = -1, rsrc = 2, csrc = 2;
    uint64_t rfix = 0, cfix = 0;
    bool fuse = child >= 0 && child < 64 &&
                ((verified_masters >> child) & 1) != 0 &&
                gosn_.IsAbsoluteMaster((*tps_)[child].sn_id);
    if (fuse) {
      crv = row_var_of_tp_[child];
      ccv = col_var_of_tp_[child];
      auto source_of = [&](int var, uint64_t* fixed) -> int {
        if (var == rv) return 0;
        if (var == cv) return 1;
        const Entry* e = FirstEntry(var);
        if (e == nullptr || e->value == kNullBinding) return -1;
        *fixed = e->value;
        return 2;
      };
      // A bound-check-verified master has two distinct variable
      // dimensions; a static-mask-verified one is a unit TP (ccv < 0, its
      // only entry is the row var, probed against column 0). Diagonal TPs
      // enter neither list.
      fuse = crv >= 0 && crv != ccv &&
             (rsrc = source_of(crv, &rfix)) >= 0 &&
             (ccv < 0 || (csrc = source_of(ccv, &cfix)) >= 0);
    }
    if (fuse) {
      const bool child_has_cv = ccv >= 0;
      probe_elisions_ += block.size();
      vmap_[crv].push_back(Entry{child, rfix});
      const size_t cri = vmap_[crv].size() - 1;
      size_t cci = 0;
      if (child_has_cv) {
        vmap_[ccv].push_back(Entry{child, cfix});
        cci = vmap_[ccv].size() - 1;
      }
      visited_[child] = true;
      const bool child_leaf = visited_count + 2 == stps_.size();
      const int gchild = child_leaf ? -1 : ChooseNextTp();
      for (const BindingPair& p : block) {
        if (rv >= 0) vmap_[rv][ri].value = p.row;
        if (has_cv) vmap_[cv][ci].value = p.col;
        if (rsrc != 2) vmap_[crv][cri].value = rsrc == 0 ? p.row : p.col;
        if (child_has_cv && csrc != 2) {
          vmap_[ccv][cci].value = csrc == 0 ? p.row : p.col;
        }
        if (child_leaf) {
          Emit();
        } else {
          RecurseOn(gchild, visited_count + 2);
        }
      }
      visited_[child] = false;
      if (child_has_cv) vmap_[ccv].pop_back();
      vmap_[crv].pop_back();
    } else if (PreparedChildEnum pce;
               PrepareChildEnum(child, rv, cv == rv ? -1 : cv, &pce)) {
      // One-free-dimension absolute-master child: its enumeration setup
      // (static mask, bound-check structure, ancestor-bound values) is
      // block-invariant — resolved once above. Per pair: translate the
      // pair-sourced values, stream the free dimension through the shared
      // filter core, and descend on the collected grandchild block. A pair
      // with nothing surviving is the rollback case (abs master: return,
      // never a NULL row) — skip it. `impossible` means an ancestor-bound
      // side can never match: every pair rolls back, nothing to do.
      if (!pce.impossible) {
        const TpState& ctp = (*tps_)[child];
        std::vector<BindingPair>& gblock = pair_blocks_[visited_count + 1];
        for (const BindingPair& p : block) {
          uint32_t bl = pce.bound_local;
          if (pce.bsrc != 2) {
            std::optional<uint32_t> l =
                ids_.ToLocal(pce.bound_kind, pce.bsrc == 0 ? p.row : p.col);
            if (!l) continue;  // out of the child's domain: rollback
            bl = *l;
          }
          bool dead = false;
          for (int i = 0; i < pce.nchecks; ++i) {
            const PreparedChildEnum::Src& src = pce.srcs[i];
            if (src.src == 2) continue;
            BoundCheck& bc = pce.bcs[i];
            std::optional<uint32_t> l = ids_.ToLocal(
                src.other_kind, src.src == 0 ? p.row : p.col);
            if (!l) {
              dead = true;  // PrepareBoundChecks would return -1
              break;
            }
            bc.bound = *l;
            if (src.vdim == Dim::kCol) {
              bc.row = &bc.bm->Row(*l);
              if (bc.row->IsEmpty()) {
                dead = true;
                break;
              }
            }
          }
          if (dead) continue;
          gblock.clear();
          if (pce.bound_dim == Dim::kRow) {
            const CompressedRow& row = ctp.mat.bm.Row(bl);
            const uint64_t rg = ids_.ToGlobal(ctp.mat.row_kind, bl);
            EnumeratePrepared(row, pce.free_size, row.Count(), pce.sm,
                              pce.bcs, pce.nchecks, [&](uint32_t c) {
                                gblock.push_back(BindingPair{
                                    rg, ids_.ToGlobal(ctp.mat.col_kind, c)});
                              });
          } else {
            const CompressedRow& col = TransposedColumn(child, bl);
            const uint64_t cg = ids_.ToGlobal(ctp.mat.col_kind, bl);
            EnumeratePrepared(col, pce.free_size, col.Count(), pce.sm,
                              pce.bcs, pce.nchecks, [&](uint32_t r) {
                                gblock.push_back(BindingPair{
                                    ids_.ToGlobal(ctp.mat.row_kind, r), cg});
                              });
          }
          if (gblock.empty()) continue;
          if (rv >= 0) vmap_[rv][ri].value = p.row;
          if (has_cv) vmap_[cv][ci].value = p.col;
          ++enum_blocks_;
          VisitBlock(ctp, gblock, visited_count + 1, pce.verified);
        }
      }
    } else {
      for (const BindingPair& p : block) {
        if (rv >= 0) vmap_[rv][ri].value = p.row;
        if (has_cv) vmap_[cv][ci].value = p.col;
        RecurseOn(child, visited_count + 1);
      }
    }
  }
  visited_[tp.tp_id] = false;
  if (has_cv) vmap_[cv].pop_back();
  if (rv >= 0) vmap_[rv].pop_back();
}

void MultiwayJoin::ReplayPairs(const TpState& tp,
                               const std::vector<BindingPair>& pairs,
                               size_t visited_count) {
  if (pairs.empty()) {
    VisitNull(tp, visited_count);
    return;
  }
  for (const BindingPair& p : pairs) {
    VisitWith(tp, p.row, p.col, visited_count);
  }
}

template <typename EmitPair>
bool MultiwayJoin::EnumerateMatches(int chosen, EmitPair&& emit) {
  const TpState& tp = (*tps_)[chosen];
  int rv = row_var_of_tp_[chosen];
  int cv = col_var_of_tp_[chosen];
  enum_verified_masters_ = 0;
  // Records that checks[0..n) were applied to every pair this call emits —
  // the bit VisitBlock consults to elide the child's re-probe.
  auto mark_verified = [this](const std::array<BoundCheck, kMaxBoundChecks>&
                                  checks,
                              int n) {
    for (int i = 0; i < n; ++i) {
      if (checks[i].tp_id < 64) {
        enum_verified_masters_ |= uint64_t{1} << checks[i].tp_id;
      }
    }
  };

  // Resolve the constraints on this TP's dimensions. A binding is either
  // absent (enumerate), a concrete local id, NULL (no triple can match), or
  // incompatible with the dimension's domain (no triple can match).
  enum class Constraint { kFree, kLocal, kImpossible };
  auto resolve = [&](int var, DomainKind kind,
                     uint32_t* local) -> Constraint {
    if (var < 0) return Constraint::kFree;
    const Entry* e = FirstEntry(var);
    if (e == nullptr) return Constraint::kFree;
    if (e->value == kNullBinding) return Constraint::kImpossible;
    std::optional<uint32_t> l = ids_.ToLocal(kind, e->value);
    if (!l) return Constraint::kImpossible;
    *local = *l;
    return Constraint::kLocal;
  };

  uint32_t row_local = 0, col_local = 0;
  Constraint rc = resolve(rv, tp.mat.row_kind, &row_local);
  Constraint cc = resolve(cv, tp.mat.col_kind, &col_local);

  bool matched = false;
  const BitMat& bm = tp.mat.bm;
  const bool diagonal = (rv >= 0 && rv == cv);
  // Block mode is the intersect filtering plus block descent; only the
  // legacy per-bit mode skips the candidate intersection.
  const bool intersect = options_.enum_mode != JoinEnumMode::kPerBit;

  auto global_row = [&](uint32_t r) { return ids_.ToGlobal(tp.mat.row_kind, r); };
  auto global_col = [&](uint32_t c) { return ids_.ToGlobal(tp.mat.col_kind, c); };

  // Enumerates a candidate set over one of the chosen TP's dimensions,
  // pruned by the masters' static fold mask and bound-row constraints
  // before any recursion. Small sets filter inline — the exact tests the
  // per-bit path would pay one recursion level down, without the recursion
  // on failures and with no buffering; large sets collect surviving
  // positions word-parallel and merge the constraint rows through them.
  // The visit order — and therefore every emitted row — is identical on
  // every path: intersection only removes candidates whose subtree rolls
  // back (DESIGN.md §6).
  auto enumerate = [&](const auto& cands, int var, Dim dim, DomainKind kind,
                       uint32_t size, uint64_t approx_count, auto&& visit) {
    if (!intersect || var < 0 || masters_of_var_[var].empty()) {
      cands.ForEachSetBit(visit);
      return;
    }
    std::array<BoundCheck, kMaxBoundChecks> checks;
    int nchecks = PrepareBoundChecks(var, chosen, kind, &checks);
    if (nchecks < 0) return;  // a master can never match: zero candidates
    const Bitvector* sm = StaticFoldMask(var, chosen, dim, kind, size);
    if (sm == nullptr && nchecks == 0) {
      cands.ForEachSetBit(visit);
      return;
    }
    mark_verified(checks, nchecks);
    EnumeratePrepared(cands, size, approx_count, sm, checks, nchecks, visit);
  };
  auto enumerate_row = [&](const CompressedRow& cands, int var, Dim dim,
                           DomainKind kind, uint32_t size, auto&& visit) {
    enumerate(cands, var, dim, kind, size, cands.Count(), visit);
  };

  if (rc == Constraint::kImpossible || cc == Constraint::kImpossible) {
    // fallthrough: no triple matches.
  } else if (rv < 0 && cv < 0) {
    // Variable-free TP: pure existence check.
    if (!bm.IsEmpty()) {
      matched = true;
      emit(0, 0);
    }
  } else if (cv < 0) {
    // Single-variable TP: bits live at (row, 0).
    if (rc == Constraint::kLocal) {
      if (bm.Test(row_local, 0)) {
        matched = true;
        emit(global_row(row_local), 0);
      }
    } else {
      enumerate(bm.NonEmptyRows(), rv, Dim::kRow, tp.mat.row_kind,
                     bm.num_rows(), bm.Count(), [&](uint32_t r) {
                       matched = true;
                       emit(global_row(r), 0);
                     });
    }
  } else if (diagonal) {
    // (?x p ?x): the diagonal was enforced at load time; enumerate rows.
    if (rc == Constraint::kLocal) {
      if (bm.Test(row_local, row_local)) {
        matched = true;
        emit(global_row(row_local), global_col(row_local));
      }
    } else {
      enumerate(bm.NonEmptyRows(), rv, Dim::kRow, tp.mat.row_kind,
                     bm.num_rows(), bm.Count(), [&](uint32_t r) {
                       if (bm.Test(r, r)) {
                         matched = true;
                         emit(global_row(r), global_col(r));
                       }
                     });
    }
  } else if (rc == Constraint::kLocal && cc == Constraint::kLocal) {
    if (bm.Test(row_local, col_local)) {
      matched = true;
      emit(global_row(row_local), global_col(col_local));
    }
  } else if (rc == Constraint::kLocal) {
    enumerate_row(bm.Row(row_local), cv, Dim::kCol, tp.mat.col_kind,
                  bm.num_cols(), [&](uint32_t c) {
                    matched = true;
                    emit(global_row(row_local), global_col(c));
                  });
  } else if (cc == Constraint::kLocal) {
    enumerate_row(TransposedColumn(chosen, col_local), rv, Dim::kRow,
                  tp.mat.row_kind, bm.num_rows(), [&](uint32_t r) {
                    matched = true;
                    emit(global_row(r), global_col(col_local));
                  });
  } else {
    // Neither dimension bound: enumerate every triple (first TP, or a TP
    // whose connections were all nulled). Rows go through the row-var
    // constraints, each surviving row's bits through the col-var
    // constraints — a master's constraint on one variable cannot depend on
    // the other, since neither is bound yet.
    uint32_t cur_row = 0;  // hoisted so the column visitor is built once
    const auto visit_col = [&](uint32_t c) {
      matched = true;
      emit(global_row(cur_row), global_col(c));
    };
    // Resolve the column-side constraints once: no binding is pushed
    // between rows at this level, so PrepareBoundChecks and the static
    // mask cannot change across the row loop.
    std::array<BoundCheck, kMaxBoundChecks> col_checks;
    int col_nchecks = 0;
    const Bitvector* col_sm = nullptr;
    if (intersect && cv >= 0 && !masters_of_var_[cv].empty()) {
      col_nchecks = PrepareBoundChecks(cv, chosen, tp.mat.col_kind,
                                       &col_checks);
      if (col_nchecks >= 0) {
        col_sm = StaticFoldMask(cv, chosen, Dim::kCol, tp.mat.col_kind,
                                bm.num_cols());
      }
    }
    if (col_nchecks >= 0) {  // else a column master can never match
      if (col_sm != nullptr || col_nchecks > 0) {
        // Every emitted pair's column goes through the prepared path below.
        mark_verified(col_checks, col_nchecks);
      }
      enumerate(
          bm.NonEmptyRows(), rv, Dim::kRow, tp.mat.row_kind, bm.num_rows(),
          bm.Count(), [&](uint32_t r) {
            cur_row = r;
            const CompressedRow& row = bm.Row(r);
            if (col_sm == nullptr && col_nchecks == 0) {
              row.ForEachSetBit(visit_col);
            } else {
              EnumeratePrepared(row, bm.num_cols(), row.Count(), col_sm,
                                col_checks, col_nchecks, visit_col);
            }
          });
    }
  }

  return matched;
}

void MultiwayJoin::Emit() {
  // One check per emitted row: block descent can reach here in a tight
  // loop without passing RecurseOn in between (the probe-elision fusion).
  if (ctx_ != nullptr) ctx_->CheckCancel();
  // Per-supernode nulled state for this row (member scratch: Emit is the
  // innermost hot path and must not allocate).
  std::vector<char>& sn_nulled = sn_nulled_scratch_;
  sn_nulled.assign(static_cast<size_t>(gosn_.num_supernodes()), 0);

  bool row_nulled = false;

  // --- Nullification (cyclic queries, Lemma 3.4): a slave supernode whose
  // TP entries are partially NULL is inconsistent; NULL the whole group and
  // cascade through the failure closure.
  if (options_.nullification) {
    std::vector<int>& seeds = null_seeds_scratch_;
    seeds.clear();
    for (int sn = 0; sn < gosn_.num_supernodes(); ++sn) {
      if (gosn_.IsAbsoluteMaster(sn)) continue;
      bool any_null = false, any_bound = false;
      for (int tp_id : gosn_.supernode(sn).tp_ids) {
        int rv = row_var_of_tp_[tp_id];
        int cv = col_var_of_tp_[tp_id];
        for (int var : {rv, cv}) {
          if (var < 0) continue;
          for (const Entry& e : vmap_[var]) {
            if (e.tp_id != tp_id) continue;
            (e.value == kNullBinding ? any_null : any_bound) = true;
          }
        }
      }
      if (any_null && any_bound) seeds.push_back(sn);
    }
    if (!seeds.empty()) {
      for (int sn : FailureClosure(gosn_, seeds)) sn_nulled[sn] = 1;
      nulling_applied_ = true;
      row_nulled = true;
    }
  }

  // Effective binding of a variable: the first (master-most) entry whose TP
  // is not in a nulled supernode.
  auto effective = [&](int var) -> uint64_t {
    for (const Entry& e : vmap_[var]) {
      if (sn_nulled[gosn_.SupernodeOf(e.tp_id)] != 0) continue;
      return e.value;
    }
    return kNullBinding;
  };

  // --- FaN: apply scoped filters innermost-first (Section 5.2).
  for (const ScopedFilter& filter : options_.filters) {
    VarLookup lookup = [&](const std::string& name) -> std::optional<Term> {
      int var = VarIndex(name);
      if (var < 0) return std::nullopt;
      uint64_t v = effective(var);
      if (v == kNullBinding) return std::nullopt;
      return ids_.Decode(dict_, v);
    };
    if (FilterPasses(filter.expr, lookup)) continue;
    bool touches_abs_master = false;
    for (int sn : filter.scope_supernodes) {
      if (gosn_.IsAbsoluteMaster(sn)) {
        touches_abs_master = true;
        break;
      }
    }
    if (touches_abs_master) return;  // Drop the row.
    for (int sn : FailureClosure(gosn_, filter.scope_supernodes)) {
      sn_nulled[sn] = 1;
    }
    nulling_applied_ = true;
    row_nulled = true;
  }

  RawRow& row = emit_row_scratch_;
  row.assign(var_names_.size(), kNullBinding);
  for (size_t i = 0; i < var_names_.size(); ++i) {
    row[i] = effective(static_cast<int>(i));
  }
  ++emitted_;
  sink_(row, row_nulled);
}

}  // namespace lbr
