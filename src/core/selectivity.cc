#include "core/selectivity.h"

#include <algorithm>
#include <limits>

#include "bitmat/tp_loader.h"

namespace lbr {

uint64_t EstimateTpCardinality(const TripleIndex& index,
                               const Dictionary& dict,
                               const TriplePattern& tp) {
  const bool sv = tp.s.is_var, pv = tp.p.is_var, ov = tp.o.is_var;
  // Every case below fixes the subject or the object, so the orientation
  // preference never decides the side.
  const TripleIndex::Side side = TpReadSide(tp, /*prefer_subject_rows=*/true);

  if (!pv) {
    auto p = dict.PredicateId(tp.p.term);
    if (!p) return 0;
    if (sv && ov) return index.PredicateCardinality(*p);
    // Pin the slice while reading its rows (spill safety).
    TripleIndex::SlicePin pin = index.Slice(*p, side);
    if (sv) {
      auto o = dict.ObjectId(tp.o.term);
      return o ? TripleIndex::FindRowIn(pin->rows, *o).Count() : 0;
    }
    if (ov) {
      auto s = dict.SubjectId(tp.s.term);
      return s ? TripleIndex::FindRowIn(pin->rows, *s).Count() : 0;
    }
    auto s = dict.SubjectId(tp.s.term);
    auto o = dict.ObjectId(tp.o.term);
    return (s && o && TripleIndex::FindRowIn(pin->rows, *s).Test(*o)) ? 1 : 0;
  }

  // Variable predicate: sum across predicates.
  uint64_t total = 0;
  if (!sv && ov) {
    auto s = dict.SubjectId(tp.s.term);
    if (!s) return 0;
    for (uint32_t p = 0; p < index.num_predicates(); ++p) {
      total += TripleIndex::FindRowIn(index.Slice(p, side)->rows, *s).Count();
    }
    return total;
  }
  if (sv && !ov) {
    auto o = dict.ObjectId(tp.o.term);
    if (!o) return 0;
    for (uint32_t p = 0; p < index.num_predicates(); ++p) {
      total += TripleIndex::FindRowIn(index.Slice(p, side)->rows, *o).Count();
    }
    return total;
  }
  if (!sv && !ov) {
    auto s = dict.SubjectId(tp.s.term);
    auto o = dict.ObjectId(tp.o.term);
    if (!s || !o) return 0;
    for (uint32_t p = 0; p < index.num_predicates(); ++p) {
      if (TripleIndex::FindRowIn(index.Slice(p, side)->rows, *s).Test(*o)) {
        ++total;
      }
    }
    return total;
  }
  return index.num_triples();  // (?s ?p ?o), rejected later anyway.
}

uint64_t JvarSelectivityKey(const std::vector<uint64_t>& tp_cardinalities,
                            const std::vector<int>& tps_with_jvar) {
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (int tp_id : tps_with_jvar) {
    best = std::min(best, tp_cardinalities[tp_id]);
  }
  return best;
}

}  // namespace lbr
