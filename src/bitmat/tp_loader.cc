#include "bitmat/tp_loader.h"

#include <algorithm>

#include "util/fault_injection.h"

namespace lbr {

namespace {

// True when `mask` (an optional active-pruning mask) keeps coordinate `id`.
bool Admits(const Bitvector* mask, uint32_t id) {
  return mask == nullptr || (id < mask->size() && mask->Get(id));
}

// A bound on the rows a load keeps out of `candidates` source rows: a
// selective row mask must not size the matrix's arrays by the whole slice.
size_t RowBound(size_t candidates, const Bitvector* row_mask) {
  return row_mask == nullptr ? candidates
                             : std::min<size_t>(candidates, row_mask->Count());
}

using SliceRowIt =
    std::vector<std::pair<uint32_t, CompressedRow>>::const_iterator;

// The first row in [first, last) whose id is >= `target`, for ids sorted
// ascending: exponential steps from `first`, then a binary search in the
// last step. O(log d) for a row d places ahead.
SliceRowIt Gallop(SliceRowIt first, SliceRowIt last, uint32_t target) {
  if (first == last || first->first >= target) return first;
  // Invariant: lo->first < target.
  SliceRowIt lo = first;
  ptrdiff_t step = 1;
  while (step < last - lo && lo[step].first < target) {
    lo += step;
    step *= 2;
  }
  // The answer is in (lo, hi]: lower_bound yields hi when no row before it
  // reaches `target`.
  SliceRowIt hi = step < last - lo ? lo + step : last;
  return std::lower_bound(
      lo + 1, hi, target,
      [](const std::pair<uint32_t, CompressedRow>& row, uint32_t id) {
        return row.first < id;
      });
}

// Builds the matrix of a slice's (id, row) pairs in one arena, applying the
// active-pruning masks. A row the column mask leaves whole stays the
// slice's row (a view of the mapped extent); only rows that lose bits are
// re-encoded. `diagonal` restricts a same-variable TP (?x :p ?x) to its
// diagonal: only IDs in the shared Vso range can denote the same term on
// both dimensions.
//
// With a row mask, the slice's sorted ids and the mask's set bits are
// intersected leapfrog style: gallop the rows to the current mask bit,
// then jump the mask to the row's id. A load costs O(k log(n/k) + mask
// words) for k kept rows of n, not one mask probe per slice row.
BitMat FillRows(const std::vector<std::pair<uint32_t, CompressedRow>>& rows,
                const ActiveMasks& masks, bool diagonal, uint32_t num_common,
                ExecContext* ctx, uint32_t num_rows, uint32_t num_cols) {
  BitMat::Builder b(num_rows, num_cols);
  b.Reserve(RowBound(rows.size(), masks.row_mask), 0);
  ScratchPositions scratch(ctx);
  auto add = [&](uint32_t id, const CompressedRow& row) {
    if (diagonal) {
      if (id < num_common && row.Test(id) && Admits(masks.col_mask, id)) {
        scratch->assign(1, id);
        b.AddPositions(id, *scratch);
      }
    } else if (masks.col_mask != nullptr) {
      b.AddMasked(id, row, *masks.col_mask, scratch.get());
    } else {
      b.Add(id, row);
    }
  };
  if (masks.row_mask == nullptr) {
    for (const auto& [id, row] : rows) add(id, row);
    return b.Finish();
  }
  const Bitvector& mask = *masks.row_mask;
  const SliceRowIt end = rows.end();
  SliceRowIt it = rows.begin();
  for (size_t bit = mask.FindFirst(); bit < mask.size();) {
    it = Gallop(it, end, static_cast<uint32_t>(bit));
    if (it == end) break;
    if (it->first == bit) {
      add(it->first, it->second);
      if (++it == end) break;
    }
    // it->first > bit >= 0 here, so the first mask bit at or past the
    // row's id is FindNext(id - 1).
    bit = mask.FindNext(it->first - 1);
  }
  return b.Finish();
}

// The single-column matrix of the set bits of `row`, honoring the
// row-domain mask. Every row is the shared unit row.
BitMat FillColumnVector(const CompressedRow& row, const ActiveMasks& masks,
                        ExecContext* ctx, uint32_t num_rows) {
  BitMat::Builder b(num_rows, 1);
  b.Reserve(RowBound(row.Count(), masks.row_mask), 0);
  if (masks.row_mask == nullptr) {
    row.ForEachSetBit(
        [&](uint32_t id) { b.AddShared(id, BitMat::UnitRow()); });
    return b.Finish();
  }
  ScratchPositions ids(ctx);
  row.AppendMaskedPositions(*masks.row_mask, ids.get());
  for (uint32_t id : *ids) b.AddShared(id, BitMat::UnitRow());
  return b.Finish();
}

}  // namespace

Bitvector AlignMask(const Bitvector& src, DomainKind src_kind,
                    DomainKind dst_kind, uint32_t num_common,
                    uint32_t dst_size) {
  Bitvector out;
  AlignMaskInto(src, src_kind, dst_kind, num_common, dst_size, &out);
  return out;
}

void AlignMaskInto(const Bitvector& src, DomainKind src_kind,
                   DomainKind dst_kind, uint32_t num_common,
                   uint32_t dst_size, Bitvector* out) {
  if (src_kind == DomainKind::kPredicate || dst_kind == DomainKind::kPredicate) {
    if (src_kind != dst_kind) {
      throw UnsupportedQueryError(
          "joins between predicate-position and subject/object-position "
          "variables are not supported (Section 5 limitation)");
    }
  }
  // Word-wise prefix copy, then Vso truncation for subject<->object
  // conversions (only the shared ID range is join-compatible).
  out->AssignResized(src, dst_size);
  if (src_kind != dst_kind &&
      (src_kind == DomainKind::kSubject || src_kind == DomainKind::kObject)) {
    out->TruncateBitsFrom(num_common);
  }
}

TripleIndex::Side TpReadSide(const TriplePattern& tp,
                             bool prefer_subject_rows) {
  if (!tp.s.is_var) return TripleIndex::Side::kSO;
  if (!tp.o.is_var) return TripleIndex::Side::kOS;
  return prefer_subject_rows ? TripleIndex::Side::kSO
                             : TripleIndex::Side::kOS;
}

TpLayout LayoutOf(const TripleIndex& index, const TriplePattern& tp,
                  bool prefer_subject_rows) {
  if (tp.s.is_var && tp.p.is_var && tp.o.is_var) {
    throw UnsupportedQueryError(
        "triple patterns with all three positions variable are not "
        "supported: " +
        tp.ToString());
  }
  // Every variable position is one dimension, rows first, taken in this
  // order: the predicate, then the subject and the object in the order of
  // the side the TP reads (S-O rows are keyed by subject, O-S rows by
  // object).
  struct Position {
    DomainKind kind;
    const PatternTerm& term;
    uint32_t size;
  };
  const Position s{DomainKind::kSubject, tp.s, index.num_subjects()};
  const Position o{DomainKind::kObject, tp.o, index.num_objects()};
  const Position p{DomainKind::kPredicate, tp.p, index.num_predicates()};
  const bool so =
      TpReadSide(tp, prefer_subject_rows) == TripleIndex::Side::kSO;
  TpLayout layout;
  bool row_taken = false;
  for (const Position* pos : {&p, so ? &s : &o, so ? &o : &s}) {
    if (!pos->term.is_var) continue;
    if (!row_taken) {
      layout.row_kind = pos->kind;
      layout.row_var = pos->term.var;
      layout.num_rows = pos->size;
      row_taken = true;
    } else {
      layout.col_kind = pos->kind;
      layout.col_var = pos->term.var;
      layout.num_cols = pos->size;
    }
  }
  return layout;
}

namespace {

TpBitMat LoadTpBitMatImpl(const TripleIndex& index, const Dictionary& dict,
                          const TriplePattern& tp, bool prefer_subject_rows,
                          const ActiveMasks& masks, ExecContext* ctx) {
  TpBitMat out;
  static_cast<TpLayout&>(out) = LayoutOf(index, tp, prefer_subject_rows);
  const bool sv = tp.s.is_var, pv = tp.p.is_var, ov = tp.o.is_var;
  const TripleIndex::Side side = TpReadSide(tp, prefer_subject_rows);
  auto subject_id = [&]() -> std::optional<uint32_t> {
    return dict.SubjectId(tp.s.term);
  };
  auto predicate_id = [&]() -> std::optional<uint32_t> {
    return dict.PredicateId(tp.p.term);
  };
  auto object_id = [&]() -> std::optional<uint32_t> {
    return dict.ObjectId(tp.o.term);
  };

  if (!pv) {
    std::optional<uint32_t> p = predicate_id();
    if (sv && ov) {
      // (?a :p ?b): full predicate slice, orientation by the jvar order.
      // Pin the slice across the copy-out so a concurrent snapshot spill
      // cannot free the row vectors mid-iteration.
      TripleIndex::SlicePin pin = p ? index.Slice(*p, side) : nullptr;
      out.bm = pin ? FillRows(pin->rows, masks, tp.s.var == tp.o.var,
                              index.num_common(), ctx, out.num_rows,
                              out.num_cols)
                   : BitMat(out.num_rows, out.num_cols);
      return out;
    }
    if (sv != ov) {
      // (?a :p :o) is one row of the P-S BitMat of :o == row o of the O-S
      // slice; (:s :p ?b) one row of the P-O BitMat of :s == row s of the
      // S-O slice.
      std::optional<uint32_t> key = sv ? object_id() : subject_id();
      TripleIndex::SlicePin pin = p && key ? index.Slice(*p, side) : nullptr;
      out.bm = pin ? FillColumnVector(TripleIndex::FindRowIn(pin->rows, *key),
                                      masks, ctx, out.num_rows)
                   : BitMat(out.num_rows, out.num_cols);
      return out;
    }
    // Fully fixed (:s :p :o): a 1x1 existence matrix.
    out.bm = BitMat(out.num_rows, out.num_cols);
    std::optional<uint32_t> s = subject_id();
    std::optional<uint32_t> o = object_id();
    if (p && s && o) {
      TripleIndex::SlicePin pin = index.Slice(*p, side);
      if (TripleIndex::FindRowIn(pin->rows, *s).Test(*o)) {
        out.bm.SetRowShared(0, BitMat::UnitRow());
      }
    }
    return out;
  }

  // Variable predicate: (:s ?p ?b) is the P-O BitMat of :s and (?a ?p :o)
  // the P-S BitMat of :o; row p of either is row `key` of p's slice.
  if (sv != ov) {
    BitMat::Builder b(out.num_rows, out.num_cols);
    std::optional<uint32_t> key = sv ? object_id() : subject_id();
    if (key) {
      ScratchPositions scratch(ctx);
      for (uint32_t p = 0; p < index.num_predicates(); ++p) {
        if (!Admits(masks.row_mask, p)) continue;
        // The row leaves the pin only as a view of the mapped extent or as
        // words copied into the arena, so releasing the pin is safe.
        TripleIndex::SlicePin pin = index.Slice(p, side);
        const CompressedRow& row = TripleIndex::FindRowIn(pin->rows, *key);
        if (masks.col_mask != nullptr) {
          b.AddMasked(p, row, *masks.col_mask, scratch.get());
        } else {
          b.Add(p, row);
        }
      }
    }
    out.bm = b.Finish();
    return out;
  }
  // (:s ?p :o): predicates linking the fixed pair.
  out.bm = BitMat(out.num_rows, out.num_cols);
  std::optional<uint32_t> s = subject_id();
  std::optional<uint32_t> o = object_id();
  if (s && o) {
    for (uint32_t p = 0; p < index.num_predicates(); ++p) {
      if (!Admits(masks.row_mask, p)) continue;
      TripleIndex::SlicePin pin = index.Slice(p, side);
      if (TripleIndex::FindRowIn(pin->rows, *s).Test(*o)) {
        out.bm.SetRowShared(p, BitMat::UnitRow());
      }
    }
  }
  return out;
}

}  // namespace

TpBitMat LoadTpBitMat(const TripleIndex& index, const Dictionary& dict,
                      const TriplePattern& tp, bool prefer_subject_rows,
                      const ActiveMasks& masks, ExecContext* ctx) {
  // Materialization is a pure read of the index: a transient fault injected
  // at tp_loader.load (or bubbling up from a slice materialization) leaves
  // nothing partial behind, so the whole load is safely retryable.
  return RetryTransient([&] {
    FaultRegistry::Instance().MaybeInject(FaultSiteId::kTpLoaderLoad);
    return LoadTpBitMatImpl(index, dict, tp, prefer_subject_rows, masks, ctx);
  });
}

}  // namespace lbr
