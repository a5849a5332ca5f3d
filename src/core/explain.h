#ifndef LBR_CORE_EXPLAIN_H_
#define LBR_CORE_EXPLAIN_H_

#include <string>

#include "sparql/ast.h"

namespace lbr {

class Engine;
struct QueryStats;

/// Produces a human-readable query plan — the "explain" view of what
/// Algorithm 5.1 will do for this query. It renders the CompiledPlan that
/// `engine` itself would execute (Engine::CompilePlan, bypassing the plan
/// cache):
///   - the parsed algebra, the projection and the UNF branch count,
///   - per branch: supernodes with their TPs and estimated cardinalities,
///     GoSN edges, scoped filters, well-designedness (and any Appendix B
///     conversion),
///   - the GoJ (jvars, cyclicity), the Alg 3.1 orders, the TP load order
///     and the nullification/best-match decision (Lemma 3.4).
///
/// Nothing is loaded or executed, so explaining is cheap even for queries
/// whose evaluation would be large. Throws UnsupportedQueryError for the
/// shapes Execute rejects.
std::string ExplainQuery(const Engine& engine, const ParsedQuery& query);

/// Convenience overload: parses `sparql` first.
std::string ExplainQuery(const Engine& engine, const std::string& sparql);

/// Post-execution companion to ExplainQuery: renders what a query actually
/// did from its QueryStats — its termination, per-phase times, the join's
/// column-access counters, TpCache hits/misses and held triples, and the
/// fold-memo hits/misses. Appended by tools (e.g. the
/// SPARQL shell's timing mode) after running the query.
std::string ExplainCacheStats(const QueryStats& stats);

}  // namespace lbr

#endif  // LBR_CORE_EXPLAIN_H_
