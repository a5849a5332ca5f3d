#ifndef LBR_CORE_BESTMATCH_H_
#define LBR_CORE_BESTMATCH_H_

#include <vector>

#include "core/row.h"

namespace lbr {

class ExecContext;

/// The best-match (minimum-union) operator of Section 3.1: removes every
/// result row that is subsumed by another row (r1 ❁ r2 — r1's non-null
/// bindings all agree with r2 and r2 binds strictly more variables).
///
/// `master_cols` are columns that are never NULL (bindings produced by
/// absolute-master TPs); rows are grouped on them first, since a row can
/// only be subsumed by a row with identical never-null bindings. Pass an
/// empty vector to fall back to a single group.
///
/// Preserves bag semantics: exact duplicate rows are kept (subsumption is
/// strict). Row order within the output follows the input.
///
/// Subsumption is quadratic within a bucket (and the empty-`master_cols`
/// fallback is one bucket), so `ctx` — when non-null — is polled for
/// cancellation as the scan advances (DESIGN.md §9).
RowSlab BestMatch(const RowSlab& rows, const std::vector<int>& master_cols,
                  ExecContext* ctx = nullptr);

}  // namespace lbr

#endif  // LBR_CORE_BESTMATCH_H_
