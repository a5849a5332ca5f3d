#ifndef LBR_CORE_TP_STATE_H_
#define LBR_CORE_TP_STATE_H_

#include <cstdint>

#include "bitmat/tp_loader.h"
#include "sparql/ast.h"

namespace lbr {

/// Per-triple-pattern query state: the TP, its supernode, its loaded BitMat
/// (with the variable/dimension mapping), and bookkeeping counters used by
/// the evaluation metrics of Section 6 (#initial triples, #triples after
/// pruning).
struct TpState {
  TriplePattern tp;
  int tp_id = 0;
  int sn_id = 0;
  TpBitMat mat;
  uint64_t estimated_count = 0;  ///< Metadata estimate, before loading.
  uint64_t initial_count = 0;    ///< Triples loaded by init (after active pruning).

  uint64_t CurrentCount() const { return mat.bm.Count(); }
};

}  // namespace lbr

#endif  // LBR_CORE_TP_STATE_H_
