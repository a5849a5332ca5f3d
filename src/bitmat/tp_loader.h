#ifndef LBR_BITMAT_TP_LOADER_H_
#define LBR_BITMAT_TP_LOADER_H_

#include <optional>
#include <stdexcept>
#include <string>

#include "bitmat/bitmat.h"
#include "bitmat/triple_index.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "util/exec_context.h"

namespace lbr {

/// Which value domain a BitMat dimension ranges over. The subject and object
/// domains share the low `|Vso|` ID range (Appendix D); the predicate domain
/// is disjoint from both; kUnit marks a degenerate single-slot dimension
/// (TPs with fewer than two variables).
enum class DomainKind : uint8_t {
  kSubject = 0,
  kObject = 1,
  kPredicate = 2,
  kUnit = 3,
};

/// Thrown for queries the LBR prototype rejects (e.g. TPs with all three
/// positions variable, or joins between a predicate-position variable and a
/// subject/object-position variable — Section 5's stated limitations).
class UnsupportedQueryError : public std::runtime_error {
 public:
  explicit UnsupportedQueryError(const std::string& msg)
      : std::runtime_error(msg) {}
};

/// A triple pattern's BitMat layout (Section 5's case analysis): the query
/// variable and value domain of each dimension, and each dimension's size.
/// `row_var`/`col_var` are empty when the corresponding dimension is kUnit
/// (size 1).
struct TpLayout {
  DomainKind row_kind = DomainKind::kUnit;
  DomainKind col_kind = DomainKind::kUnit;
  std::string row_var;
  std::string col_var;
  uint32_t num_rows = 1;
  uint32_t num_cols = 1;

  bool HasVar(const std::string& v) const {
    return (!row_var.empty() && row_var == v) ||
           (!col_var.empty() && col_var == v);
  }
  /// Dimension of variable `v` in this BitMat. Precondition: HasVar(v).
  Dim DimOf(const std::string& v) const {
    return (!row_var.empty() && row_var == v) ? Dim::kRow : Dim::kCol;
  }
  DomainKind KindOf(const std::string& v) const {
    return DimOf(v) == Dim::kRow ? row_kind : col_kind;
  }
};

/// A triple pattern's loaded BitMat with its layout; `bm` has the layout's
/// dimensions.
struct TpBitMat : TpLayout {
  BitMat bm;
};

/// Optional pre-loading restrictions for active pruning (Section 5): bit
/// arrays over the row/col domains of the BitMat being loaded; triples whose
/// coordinate is 0 in a given mask are not loaded.
struct ActiveMasks {
  const Bitvector* row_mask = nullptr;
  const Bitvector* col_mask = nullptr;
};

/// Converts a mask over `src_kind`'s domain to a mask over `dst_kind`'s
/// domain of size `dst_size`. Same-kind masks copy through; subject<->object
/// conversions keep only the join-compatible IDs below `num_common`
/// (Appendix D's Vso range). Predicate-domain masks never convert to S/O —
/// that is an unsupported join and throws UnsupportedQueryError.
Bitvector AlignMask(const Bitvector& src, DomainKind src_kind,
                    DomainKind dst_kind, uint32_t num_common,
                    uint32_t dst_size);

/// Allocation-free AlignMask: writes the aligned mask into `*out`, reusing
/// its capacity. `out` must not alias `src`.
void AlignMaskInto(const Bitvector& src, DomainKind src_kind,
                   DomainKind dst_kind, uint32_t num_common,
                   uint32_t dst_size, Bitvector* out);

/// Stores `row` masked by `col_mask` as row `id` of `*bm`, for
/// copy-on-write sources (the TP cache's masked copy-out): when the mask
/// drops no bit of `row`, the shared handle itself is stored — no payload
/// copy, no re-encode; only rows that actually lose bits are rebuilt, and
/// rows with no surviving bit are skipped. `row` must be non-null.
/// `scratch` is reused across calls (pass one in loops).
inline void SetRowMaskedShared(uint32_t id, const BitMat::RowHandle& row,
                               const Bitvector& col_mask,
                               std::vector<uint32_t>* scratch, BitMat* bm) {
  BitMat::RowHandle masked = BitMat::MaskedRow(row, col_mask, scratch);
  if (masked != nullptr) bm->SetRowShared(id, std::move(masked));
}

/// The side of the index `tp` reads: S-O when the subject is fixed (rows
/// keyed by that subject), O-S when only the object is fixed, and for a
/// (?a :p ?b) pattern the orientation `prefer_subject_rows` picks. The one
/// place that rule lives — LoadTpBitMat, the selectivity estimate and the
/// engine's snapshot prefetch all ask it, so a TP never prefetches or
/// materializes a side it does not read.
TripleIndex::Side TpReadSide(const TriplePattern& tp,
                             bool prefer_subject_rows);

/// The layout of `tp`'s BitMat in `index`, the one place Section 5's case
/// analysis lives — LoadTpBitMat builds from it, the engine sizes and aligns
/// its active-pruning masks by it, and the TP cache names a snapshot's
/// dimensions by it:
///   (?a :p ?b)  S x O when `prefer_subject_rows`, else O x S; the
///               diagonal (?x :p ?x) has `x` on both dimensions
///   (?a :p :o)  S x unit          (:s :p ?b)  O x unit
///   (:s :p :o)  unit x unit       (:s ?p :o)  P x unit
///   (:s ?p ?b)  P x O             (?a ?p :o)  P x S
/// Throws UnsupportedQueryError for (?s ?p ?o) patterns.
TpLayout LayoutOf(const TripleIndex& index, const TriplePattern& tp,
                  bool prefer_subject_rows);

/// Loads the BitMat holding all triples matching `tp` (Section 5's `init`
/// step). `prefer_subject_rows` picks the S-O (true) or O-S (false)
/// orientation for two-variable TPs with a fixed predicate — the engine
/// derives it from the bottom-up join-variable order. Fixed terms unknown to
/// the dictionary yield an empty BitMat of the right shape.
///
/// All rows are built in one shared arena (BitMat::Builder): a row the
/// active-pruning column mask leaves whole stays the slice's row, a row
/// that loses bits is re-encoded into the arena. `ctx` (optional) supplies
/// pooled scratch for that masking.
///
/// Throws UnsupportedQueryError for (?s ?p ?o) patterns.
TpBitMat LoadTpBitMat(const TripleIndex& index, const Dictionary& dict,
                      const TriplePattern& tp, bool prefer_subject_rows,
                      const ActiveMasks& masks = {},
                      ExecContext* ctx = nullptr);

}  // namespace lbr

#endif  // LBR_BITMAT_TP_LOADER_H_
