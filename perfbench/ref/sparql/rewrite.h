#ifndef LBR_SPARQL_REWRITE_H_
#define LBR_SPARQL_REWRITE_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sparql/ast.h"

namespace lbr {

/// Result of rewriting a query into Union Normal Form (Section 5.2):
/// `branches` are UNION-free patterns whose bag-union is the query;
/// `may_have_spurious` is set when rewrite rule (3)
/// (P1 ⟕ (P2 ∪ P3) → (P1 ⟕ P2) ∪ (P1 ⟕ P3)) was applied, in which case the
/// combined results must pass a best-match (subsumption-removal) step.
struct UnfResult {
  std::vector<std::unique_ptr<Algebra>> branches;
  bool may_have_spurious = false;

  /// One entry per left-join whose right side was distributed by rule (3).
  /// `arm_count` is the number of right-side UNF branches; `exclusive_vars`
  /// are the variables of the right subtree that occur nowhere else in the
  /// query. A result row with every exclusive var NULL is an "unmatched"
  /// row of that OPT pattern; the rewrite emits it once per arm, so its
  /// multiplicity must be divided by `arm_count` during spurious-result
  /// removal (footnote 6 of the paper).
  struct Rule3Info {
    int arm_count = 0;
    std::set<std::string> exclusive_vars;
  };
  std::vector<Rule3Info> rule3;
};

/// Rewrites a well-designed BGP-OPT-UNION-FILTER pattern into UNF using the
/// five equivalences of Section 5.2:
///  (1) (P1 ∪ P2) ⋈ P3  = (P1 ⋈ P3) ∪ (P2 ⋈ P3)       [and symmetrically]
///  (2) (P1 ∪ P2) ⟕ P3  = (P1 ⟕ P3) ∪ (P2 ⟕ P3)
///  (3) P1 ⟕ (P2 ∪ P3) → (P1 ⟕ P2) ∪ (P1 ⟕ P3)        [spurious-result flag]
///  (4) (P1 ⟕ P2) F(R) = (P1 F(R)) ⟕ P2   for safe R with vars(R) ⊆ vars(P1)
///  (5) (P1 ∪ P2) F(R) = (P1 F(R)) ∪ (P2 F(R))
UnfResult ToUnionNormalForm(const Algebra& root);

/// Applies the "cheap" filter optimization of Section 5.2: a top-level
/// conjunct FILTER (?m = ?n) is eliminated by substituting ?n with ?m in the
/// filtered subpattern. Returns the rewritten tree.
std::unique_ptr<Algebra> EliminateVarEqualities(const Algebra& root);

}  // namespace lbr

#endif  // LBR_SPARQL_REWRITE_H_
