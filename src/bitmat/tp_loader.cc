#include "bitmat/tp_loader.h"

#include "util/fault_injection.h"

namespace lbr {

namespace {

// Applies active-pruning masks while copying (id, row) pairs into `bm`.
void FillRows(const std::vector<std::pair<uint32_t, CompressedRow>>& rows,
              const ActiveMasks& masks, ExecContext* ctx, BitMat* bm) {
  ScratchPositions scratch(ctx);
  for (const auto& [id, row] : rows) {
    if (masks.row_mask != nullptr &&
        (id >= masks.row_mask->size() || !masks.row_mask->Get(id))) {
      continue;
    }
    if (masks.col_mask != nullptr) {
      SetRowMasked(id, row, *masks.col_mask, scratch.get(), bm);
    } else {
      bm->SetRow(id, row);
    }
  }
}

// Sets the single-column rows of `bm` from the set bits of `row`, honoring
// the row-domain mask. Every row is the shared unit row.
void FillColumnVector(const CompressedRow& row, const ActiveMasks& masks,
                      BitMat* bm) {
  row.ForEachSetBit([&](uint32_t id) {
    if (masks.row_mask != nullptr &&
        (id >= masks.row_mask->size() || !masks.row_mask->Get(id))) {
      return;
    }
    bm->SetRowShared(id, BitMat::UnitRow());
  });
}

// Restricts a same-variable TP (?x p ?x) to its diagonal: only IDs in the
// shared Vso range can denote the same term on both dimensions. Walks the
// non-empty rows once, appending each surviving diagonal bit to a fresh
// matrix.
void KeepDiagonal(uint32_t num_common, BitMat* bm) {
  BitMat diag(bm->num_rows(), bm->num_cols());
  bm->ForEachRow([&](uint32_t r, const BitMat::RowHandle& row) {
    if (r < num_common && row->Test(r)) {
      diag.SetRow(r, CompressedRow::FromPositions({r}));
    }
  });
  *bm = std::move(diag);
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

namespace {

TpBitMat LoadTpBitMatImpl(const TripleIndex& index, const Dictionary& dict,
                          const TriplePattern& tp, bool prefer_subject_rows,
                          const ActiveMasks& masks, ExecContext* ctx) {
  const bool sv = tp.s.is_var, pv = tp.p.is_var, ov = tp.o.is_var;
  if (sv && pv && ov) {
    throw UnsupportedQueryError(
        "triple patterns with all three positions variable are not "
        "supported: " +
        tp.ToString());
  }

  TpBitMat out;
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
      if (side == TripleIndex::Side::kSO) {
        out.row_kind = DomainKind::kSubject;
        out.col_kind = DomainKind::kObject;
        out.row_var = tp.s.var;
        out.col_var = tp.o.var;
        out.bm = BitMat(index.num_subjects(), index.num_objects());
      } else {
        out.row_kind = DomainKind::kObject;
        out.col_kind = DomainKind::kSubject;
        out.row_var = tp.o.var;
        out.col_var = tp.s.var;
        out.bm = BitMat(index.num_objects(), index.num_subjects());
      }
      if (pin) FillRows(pin->rows, masks, ctx, &out.bm);
      if (tp.s.var == tp.o.var) KeepDiagonal(index.num_common(), &out.bm);
      return out;
    }
    if (sv) {
      // (?a :p :o): one row of the P-S BitMat of :o == row o of the O-S slice.
      out.row_kind = DomainKind::kSubject;
      out.row_var = tp.s.var;
      out.bm = BitMat(index.num_subjects(), 1);
      std::optional<uint32_t> o = object_id();
      if (p && o) {
        TripleIndex::SlicePin pin = index.Slice(*p, side);
        FillColumnVector(TripleIndex::FindRowIn(pin->rows, *o), masks,
                         &out.bm);
      }
      return out;
    }
    if (ov) {
      // (:s :p ?b): one row of the P-O BitMat of :s == row s of the S-O slice.
      out.row_kind = DomainKind::kObject;
      out.row_var = tp.o.var;
      out.bm = BitMat(index.num_objects(), 1);
      std::optional<uint32_t> s = subject_id();
      if (p && s) {
        TripleIndex::SlicePin pin = index.Slice(*p, side);
        FillColumnVector(TripleIndex::FindRowIn(pin->rows, *s), masks,
                         &out.bm);
      }
      return out;
    }
    // Fully fixed (:s :p :o): a 1x1 existence matrix.
    out.bm = BitMat(1, 1);
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

  // Variable predicate.
  if (!sv && ov) {
    // (:s ?p ?b): the P-O BitMat of :s.
    out.row_kind = DomainKind::kPredicate;
    out.col_kind = DomainKind::kObject;
    out.row_var = tp.p.var;
    out.col_var = tp.o.var;
    out.bm = BitMat(index.num_predicates(), index.num_objects());
    std::optional<uint32_t> s = subject_id();
    if (s) {
      ScratchPositions scratch(ctx);
      for (uint32_t p = 0; p < index.num_predicates(); ++p) {
        if (masks.row_mask != nullptr &&
            (p >= masks.row_mask->size() || !masks.row_mask->Get(p))) {
          continue;
        }
        TripleIndex::SlicePin pin = index.Slice(p, side);
        const CompressedRow& row = TripleIndex::FindRowIn(pin->rows, *s);
        if (row.IsEmpty()) continue;
        if (masks.col_mask != nullptr) {
          SetRowMasked(p, row, *masks.col_mask, scratch.get(), &out.bm);
        } else {
          out.bm.SetRow(p, row);
        }
      }
    }
    return out;
  }
  if (sv && !ov) {
    // (?a ?p :o): the P-S BitMat of :o.
    out.row_kind = DomainKind::kPredicate;
    out.col_kind = DomainKind::kSubject;
    out.row_var = tp.p.var;
    out.col_var = tp.s.var;
    out.bm = BitMat(index.num_predicates(), index.num_subjects());
    std::optional<uint32_t> o = object_id();
    if (o) {
      ScratchPositions scratch(ctx);
      for (uint32_t p = 0; p < index.num_predicates(); ++p) {
        if (masks.row_mask != nullptr &&
            (p >= masks.row_mask->size() || !masks.row_mask->Get(p))) {
          continue;
        }
        TripleIndex::SlicePin pin = index.Slice(p, side);
        const CompressedRow& row = TripleIndex::FindRowIn(pin->rows, *o);
        if (row.IsEmpty()) continue;
        if (masks.col_mask != nullptr) {
          SetRowMasked(p, row, *masks.col_mask, scratch.get(), &out.bm);
        } else {
          out.bm.SetRow(p, row);
        }
      }
    }
    return out;
  }
  // (:s ?p :o): predicates linking the fixed pair.
  out.row_kind = DomainKind::kPredicate;
  out.row_var = tp.p.var;
  out.bm = BitMat(index.num_predicates(), 1);
  std::optional<uint32_t> s = subject_id();
  std::optional<uint32_t> o = object_id();
  if (s && o) {
    for (uint32_t p = 0; p < index.num_predicates(); ++p) {
      if (masks.row_mask != nullptr &&
          (p >= masks.row_mask->size() || !masks.row_mask->Get(p))) {
        continue;
      }
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
