#ifndef LBR_CORE_SELECTIVITY_H_
#define LBR_CORE_SELECTIVITY_H_

#include <cstdint>
#include <vector>

#include "bitmat/triple_index.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"

namespace lbr {

/// Estimates the number of triples matching `tp` from index metadata alone
/// (Appendix D: the per-BitMat triple counts and condensed row maps let
/// selectivity be judged without loading payload).
///
/// A TP is *highly selective* when few triples match it (footnote 2 of the
/// paper). Exact for every TP shape except (?s ?p ?o), which is the total
/// triple count.
uint64_t EstimateTpCardinality(const TripleIndex& index,
                               const Dictionary& dict,
                               const TriplePattern& tp);

/// Per-jvar selectivity key (Section 3.2): jvar ?j1 is more selective than
/// ?j2 iff the most selective TP containing ?j1 has fewer triples than the
/// most selective TP containing ?j2. This returns that "fewest triples over
/// TPs containing the jvar" figure; smaller means more selective.
uint64_t JvarSelectivityKey(const std::vector<uint64_t>& tp_cardinalities,
                            const std::vector<int>& tps_with_jvar);

}  // namespace lbr

#endif  // LBR_CORE_SELECTIVITY_H_
