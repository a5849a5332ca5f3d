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
/// dropping a constraint is always sound, and the constraining TP's own
/// lookup one level down rejects the mismatch (ToLocal -> kImpossible ->
/// rollback).
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

  // The best-match grouping key: every variable an absolute master uses.
  for (size_t v = 0; v < var_names_.size(); ++v) {
    if (std::any_of(tps_->begin(), tps_->end(), [&](const TpState& tp) {
          return gosn_.IsAbsoluteMaster(tp.sn_id) &&
                 tp.tp.UsesVar(var_names_[v]);
        })) {
      master_columns_.push_back(static_cast<int>(v));
    }
  }
}

int MultiwayJoin::VarIndex(const std::string& name) const {
  auto it = std::lower_bound(var_names_.begin(), var_names_.end(), name);
  if (it == var_names_.end() || *it != name) return -1;
  return static_cast<int>(it - var_names_.begin());
}

const CompressedRow& MultiwayJoin::TransposedColumn(int tp_id, uint32_t col) {
  static const CompressedRow kEmptyRow;
  const BitMat& bm = (*tps_)[tp_id].mat.bm;
  TransposeCache& tc = transpose_cache_[tp_id];
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
    // The cost rule: extract this one column while every scan so far plus
    // this one stays within what one transpose costs (a pass over the set
    // bits plus the column words), else transpose. Lazy extraction thus
    // never spends more than about one transpose before falling forward,
    // and a TP with few populated rows (each scan a handful of probes)
    // stays lazy however many of its columns are visited.
    const uint64_t scan = bm.NonEmptyRowCount();
    const uint64_t transpose_cost = bm.Count() + bm.num_cols() / 64;
    if (tc.rows_scanned + scan > transpose_cost) {
      tc.full_mat = bm.Transposed();
      tc.full = true;
      // Memory accounting point: the transpose's arrays and row objects
      // plus the payload arena its rows view.
      if (ctx_ != nullptr) {
        ctx_->ChargeMemory(tc.full_mat.HeapBytes() +
                           tc.full_mat.ArenaBytes());
      }
      ++transposes_;
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
    tc.rows_scanned += scan;
    rows_scanned_ += scan;
    ++columns_extracted_;
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
  if (!sm.built) {
    sm.built = true;
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
    }
  }
  return sm.restricted && !sm.inert ? &sm.mask : nullptr;
}

int MultiwayJoin::PrepareBoundChecks(
    int var, size_t depth, DomainKind dst_kind,
    std::array<BoundCheck, kMaxBoundChecks>* out) {
  int n = 0;
  for (const MasterConstraint& mc : masters_of_var_[var]) {
    if (n == kMaxBoundChecks) break;  // a constraint subset is still sound
    if (depth_of_tp_[mc.tp_id] <= depth) continue;  // chosen or visited
    // Only TPs whose other dimension is already bound add anything beyond
    // the static fold mask; diagonal TPs (other_var == var, free here)
    // are covered by their fold.
    if (mc.other_var < 0 || mc.other_var == var) continue;
    if (!KindsCompatible(mc.kind, dst_kind)) continue;
    const uint64_t* value = BindingAt(mc.other_var, depth);
    if (value == nullptr) continue;
    std::optional<uint32_t> bound;
    if (*value != kNullBinding) bound = ids_.ToLocal(mc.other_kind, *value);
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

uint64_t MultiwayJoin::Run(RowSlab* rows, ExecContext* ctx,
                           const NulledRowHook& on_nulled) {
  rows_ = rows;
  ctx_ = ctx;
  on_nulled_ = &on_nulled;
  rows_charged_ = rows->size();
  emitted_ = 0;
  CompileOrder();
  if (!tps_->empty()) Recurse(0);
  ChargeRows();
  ctx_ = nullptr;
  return emitted_;
}

void MultiwayJoin::CompileOrder() {
  // Alg 5.4 lines 6-11: the next TP is the first unvisited one in stps
  // order with a bound variable (a variable-free TP qualifies at once),
  // else the first unvisited one. Every visit binds all of its TP's
  // variables, NULL included, so the choice depends on the depth alone.
  const size_t n = stps_.size();
  order_.clear();
  depth_of_tp_.assign(tps_->size(), kNotVisited);
  var_slots_.resize(var_names_.size());
  for (std::vector<int>& slots : var_slots_) slots.clear();
  auto bound = [&](int var) { return var >= 0 && !var_slots_[var].empty(); };
  for (size_t d = 0; d < n; ++d) {
    int chosen = -1;
    for (int tp_id : stps_) {
      if (depth_of_tp_[tp_id] != kNotVisited) continue;
      if (chosen < 0) chosen = tp_id;  // the fallback
      const int rv = row_var_of_tp_[tp_id];
      const int cv = col_var_of_tp_[tp_id];
      if ((rv < 0 && cv < 0) || bound(rv) || bound(cv)) {
        chosen = tp_id;
        break;
      }
    }
    depth_of_tp_[chosen] = d;
    order_.push_back(chosen);
    const int rv = row_var_of_tp_[chosen];
    const int cv = col_var_of_tp_[chosen];
    if (rv >= 0) var_slots_[rv].push_back(static_cast<int>(2 * d));
    if (cv >= 0 && cv != rv) {
      var_slots_[cv].push_back(static_cast<int>(2 * d + 1));
    }
  }
  first_slot_.resize(var_names_.size());
  for (size_t v = 0; v < var_names_.size(); ++v) {
    first_slot_[v] = var_slots_[v].empty() ? -1 : var_slots_[v].front();
  }

  // A NULL visit NULLs both slots of its depth and a match binds only
  // non-NULL ids, so one slot per TP tells the two apart.
  probe_slots_.resize(static_cast<size_t>(gosn_.num_supernodes()));
  for (int sn = 0; sn < gosn_.num_supernodes(); ++sn) {
    probe_slots_[sn].clear();
    if (gosn_.IsAbsoluteMaster(sn)) continue;
    for (int tp_id : gosn_.supernode(sn).tp_ids) {
      const size_t d = depth_of_tp_[tp_id];
      const bool on_row = row_var_of_tp_[tp_id] >= 0;
      if (d == kNotVisited || (!on_row && col_var_of_tp_[tp_id] < 0)) continue;
      probe_slots_[sn].push_back(static_cast<int>(2 * d + (on_row ? 0 : 1)));
    }
  }

  // A slave TP left empty (by prune, or by the data) can never match:
  // its depth stays NULL for the whole Run and is never enumerated.
  frame_.assign(2 * n, kNullBinding);
  live_from_.assign(n + 1, n);
  for (size_t d = n; d-- > 0;) {
    const TpState& tp = (*tps_)[order_[d]];
    const bool null_up_front =
        !gosn_.IsAbsoluteMaster(tp.sn_id) && tp.mat.bm.IsEmpty();
    live_from_[d] = null_up_front ? live_from_[d + 1] : d;
  }
}

void MultiwayJoin::ChargeRows() {
  // Memory accounting point: the result rows, charged in chunks.
  if (ctx_ != nullptr) {
    ctx_->ChargeMemory((rows_->size() - rows_charged_) * rows_->width() *
                       sizeof(uint64_t));
  }
  rows_charged_ = rows_->size();
}

void MultiwayJoin::Recurse(size_t depth) {
  depth = live_from_[depth];
  if (depth == order_.size()) {
    Emit();
  } else {
    RecurseOn(depth);
  }
}

void MultiwayJoin::RecurseOn(size_t depth) {
  // Cancellation granularity of the join: every recursion node descends
  // through here, so abort latency is bounded by one enumeration step, and
  // a detached control costs a single pointer test (DESIGN.md §9).
  if (ctx_ != nullptr) ctx_->CheckCancel();
  uint64_t* slots = &frame_[2 * depth];
  bool matched = EnumerateMatches(depth, [&](uint64_t rw, uint64_t cl) {
    slots[0] = rw;
    slots[1] = cl;
    Recurse(depth + 1);
  });
  // No match (Alg 5.4 lines 27-28): an absolute master rolls the branch
  // back; a slave binds NULL and the branch continues.
  if (!matched && !gosn_.IsAbsoluteMaster((*tps_)[order_[depth]].sn_id)) {
    slots[0] = slots[1] = kNullBinding;
    Recurse(depth + 1);
  }
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

template <typename EmitPair>
bool MultiwayJoin::EnumerateMatches(size_t depth, EmitPair&& emit) {
  const int chosen = order_[depth];
  const TpState& tp = (*tps_)[chosen];
  int rv = row_var_of_tp_[chosen];
  int cv = col_var_of_tp_[chosen];

  // Resolve the constraints on this TP's dimensions. A binding is either
  // absent (enumerate), a concrete local id, NULL (no triple can match), or
  // incompatible with the dimension's domain (no triple can match).
  enum class Constraint { kFree, kLocal, kImpossible };
  auto resolve = [&](int var, DomainKind kind,
                     uint32_t* local) -> Constraint {
    if (var < 0) return Constraint::kFree;
    const uint64_t* value = BindingAt(var, depth);
    if (value == nullptr) return Constraint::kFree;
    if (*value == kNullBinding) return Constraint::kImpossible;
    std::optional<uint32_t> l = ids_.ToLocal(kind, *value);
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

  auto global_row = [&](uint32_t r) { return ids_.ToGlobal(tp.mat.row_kind, r); };
  auto global_col = [&](uint32_t c) { return ids_.ToGlobal(tp.mat.col_kind, c); };
  auto hit = [&](uint64_t row_value, uint64_t col_value) {
    matched = true;
    emit(row_value, col_value);
  };

  // Enumerates a candidate set over one of the chosen TP's dimensions,
  // pruned by the masters' static fold mask and bound-row constraints
  // before any recursion. Small sets filter inline — the exact tests the
  // constraining masters' probes would pay one recursion level down,
  // without the recursion on failures and with no buffering; large sets
  // collect surviving positions word-parallel and merge the constraint
  // rows through them. The visit order is ascending on every path, and
  // intersection only removes candidates whose subtree rolls back
  // (DESIGN.md §6).
  auto enumerate = [&](const auto& cands, int var, Dim dim, DomainKind kind,
                       uint32_t size, uint64_t approx_count, auto&& visit) {
    if (var < 0 || masters_of_var_[var].empty()) {
      cands.ForEachSetBit(visit);
      return;
    }
    std::array<BoundCheck, kMaxBoundChecks> checks;
    int nchecks = PrepareBoundChecks(var, depth, kind, &checks);
    if (nchecks < 0) return;  // a master can never match: zero candidates
    const Bitvector* sm = StaticFoldMask(var, chosen, dim, kind, size);
    if (sm == nullptr && nchecks == 0) {
      cands.ForEachSetBit(visit);
      return;
    }
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
    if (!bm.IsEmpty()) hit(0, 0);
  } else if (cv < 0) {
    // Single-variable TP: bits live at (row, 0).
    if (rc == Constraint::kLocal) {
      if (bm.Test(row_local, 0)) hit(global_row(row_local), 0);
    } else {
      enumerate(bm.NonEmptyRows(), rv, Dim::kRow, tp.mat.row_kind,
                bm.num_rows(), bm.Count(),
                [&](uint32_t r) { hit(global_row(r), 0); });
    }
  } else if (diagonal) {
    // (?x p ?x): the diagonal was enforced at load time; enumerate rows.
    if (rc == Constraint::kLocal) {
      if (bm.Test(row_local, row_local)) {
        hit(global_row(row_local), global_col(row_local));
      }
    } else {
      enumerate(bm.NonEmptyRows(), rv, Dim::kRow, tp.mat.row_kind,
                bm.num_rows(), bm.Count(), [&](uint32_t r) {
                  if (bm.Test(r, r)) hit(global_row(r), global_col(r));
                });
    }
  } else if (rc == Constraint::kLocal && cc == Constraint::kLocal) {
    if (bm.Test(row_local, col_local)) {
      hit(global_row(row_local), global_col(col_local));
    }
  } else if (rc == Constraint::kLocal) {
    enumerate_row(bm.Row(row_local), cv, Dim::kCol, tp.mat.col_kind,
                  bm.num_cols(), [&](uint32_t c) {
                    hit(global_row(row_local), global_col(c));
                  });
  } else if (cc == Constraint::kLocal) {
    enumerate_row(TransposedColumn(chosen, col_local), rv, Dim::kRow,
                  tp.mat.row_kind, bm.num_rows(), [&](uint32_t r) {
                    hit(global_row(r), global_col(col_local));
                  });
  } else {
    // Neither dimension bound: enumerate every triple (first TP, or a TP
    // whose connections were all nulled). Rows go through the row-var
    // constraints, each surviving row's bits through the col-var
    // constraints — a master's constraint on one variable cannot depend on
    // the other, since neither is bound yet.
    uint32_t cur_row = 0;  // hoisted so the column visitor is built once
    const auto visit_col = [&](uint32_t c) {
      hit(global_row(cur_row), global_col(c));
    };
    // Resolve the column-side constraints once: no binding is pushed
    // between rows at this level, so PrepareBoundChecks and the static
    // mask cannot change across the row loop.
    std::array<BoundCheck, kMaxBoundChecks> col_checks;
    int col_nchecks = 0;
    const Bitvector* col_sm = nullptr;
    if (cv >= 0 && !masters_of_var_[cv].empty()) {
      col_nchecks = PrepareBoundChecks(cv, depth, tp.mat.col_kind,
                                       &col_checks);
      if (col_nchecks >= 0) {
        col_sm = StaticFoldMask(cv, chosen, Dim::kCol, tp.mat.col_kind,
                                bm.num_cols());
      }
    }
    if (col_nchecks >= 0) {  // else a column master can never match
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
  // One check per emitted row: a leaf TP's enumeration can emit a whole
  // candidate row's worth of results from a single RecurseOn.
  if (ctx_ != nullptr) ctx_->CheckCancel();
  bool row_nulled = false;
  // Per-supernode nulled state for this row, member scratch: Emit must not
  // allocate. A variable's effective binding is its first (master-most)
  // slot whose TP is not in a nulled supernode.
  std::vector<char>& sn_nulled = sn_nulled_scratch_;
  auto effective = [&](int var) -> uint64_t {
    for (int slot : var_slots_[var]) {
      if (sn_nulled[(*tps_)[order_[slot / 2]].sn_id] == 0) return frame_[slot];
    }
    return kNullBinding;
  };

  // Only nullification and FaN null supernodes; without them every row
  // takes its first bindings and sn_nulled is never read.
  if (options_.nullification || !options_.filters.empty()) {
    sn_nulled.assign(static_cast<size_t>(gosn_.num_supernodes()), 0);
  }

  // --- Nullification (cyclic queries, Lemma 3.4): a slave supernode
  // whose TPs were visited partly NULL is inconsistent; NULL the whole
  // group and cascade through the failure closure.
  if (options_.nullification) {
    std::vector<int>& seeds = null_seeds_scratch_;
    seeds.clear();
    for (int sn = 0; sn < gosn_.num_supernodes(); ++sn) {
      bool any_null = false, any_bound = false;
      for (int slot : probe_slots_[sn]) {
        (frame_[slot] == kNullBinding ? any_null : any_bound) = true;
      }
      if (any_null && any_bound) seeds.push_back(sn);
    }
    if (!seeds.empty()) {
      for (int sn : FailureClosure(gosn_, seeds)) sn_nulled[sn] = 1;
      nulling_applied_ = true;
      row_nulled = true;
    }
  }

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
    if (std::any_of(filter.scope_supernodes.begin(),
                    filter.scope_supernodes.end(),
                    [&](int sn) { return gosn_.IsAbsoluteMaster(sn); })) {
      return;  // The scope touches an absolute master: drop the row.
    }
    for (int sn : FailureClosure(gosn_, filter.scope_supernodes)) {
      sn_nulled[sn] = 1;
    }
    nulling_applied_ = true;
    row_nulled = true;
  }

  uint64_t* row = rows_->AppendNulls();  // straight into the caller's slab
  for (size_t i = 0; i < var_names_.size(); ++i) {
    if (row_nulled) {
      row[i] = effective(static_cast<int>(i));
    } else if (first_slot_[i] >= 0) {
      row[i] = frame_[first_slot_[i]];
    }
  }
  ++emitted_;
  if (row_nulled && *on_nulled_) (*on_nulled_)(rows_->size() - 1);
  if (rows_->size() - rows_charged_ >= kRowChargeChunk) ChargeRows();
}

}  // namespace lbr
