#ifndef LBR_SPARQL_FILTER_EVAL_H_
#define LBR_SPARQL_FILTER_EVAL_H_

#include <functional>
#include <optional>

#include "rdf/term.h"
#include "sparql/ast.h"

namespace lbr {

/// Three-valued SPARQL filter outcome: errors arise from unbound variables
/// in non-BOUND positions and propagate like SQL NULLs through &&/||.
enum class FilterOutcome { kTrue, kFalse, kError };

/// Resolves a variable name to its current binding (nullopt = unbound/NULL).
using VarLookup = std::function<std::optional<Term>(const std::string&)>;

/// Evaluates a filter expression under SPARQL's three-valued logic.
/// Comparisons: term equality/inequality for kEq/kNe; ordering compares
/// numerically when both operands are numeric literals, lexicographically
/// otherwise. BOUND(?v) never errors.
FilterOutcome EvaluateFilter(const FilterExpr& expr, const VarLookup& lookup);

/// Convenience: kTrue only (kFalse and kError both reject the row, per the
/// SPARQL specification's effective boolean value rules).
bool FilterPasses(const FilterExpr& expr, const VarLookup& lookup);

/// The term ordering used by ordering comparisons. Exposed for tests.
int CompareTerms(const Term& a, const Term& b);

}  // namespace lbr

#endif  // LBR_SPARQL_FILTER_EVAL_H_
