#ifndef LBR_CORE_EXPLAIN_H_
#define LBR_CORE_EXPLAIN_H_

#include <string>

#include "bitmat/triple_index.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"

namespace lbr {

struct QueryStats;

/// Produces a human-readable query plan — the "explain" view of what
/// Algorithm 5.1 will do for this query:
///   - the serialized algebra and the UNF branch count,
///   - per branch: supernodes with their TPs, GoSN edges, master/peer
///     relations, well-designedness (and any Appendix B conversions),
///   - the GoJ (jvars, edges, cyclicity) and the Alg 3.1 orders,
///   - estimated per-TP cardinalities and the nullification/best-match
///     decision (Lemma 3.4).
///
/// Purely analytical: nothing is loaded or executed, so explaining is cheap
/// even for queries whose evaluation would be large.
std::string ExplainQuery(const TripleIndex& index, const Dictionary& dict,
                         const ParsedQuery& query);

/// Convenience overload: parses `sparql` first.
std::string ExplainQuery(const TripleIndex& index, const Dictionary& dict,
                         const std::string& sparql);

/// Post-execution companion to ExplainQuery: renders the caching behavior a
/// query actually exhibited — TpCache hits/misses and held triples, and the
/// version-stamped fold-memo hits/misses — from its QueryStats. Appended by
/// tools (e.g. the SPARQL shell's timing mode) after running the query.
std::string ExplainCacheStats(const QueryStats& stats);

}  // namespace lbr

#endif  // LBR_CORE_EXPLAIN_H_
