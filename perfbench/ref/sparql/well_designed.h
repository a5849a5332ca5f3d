#ifndef LBR_SPARQL_WELL_DESIGNED_H_
#define LBR_SPARQL_WELL_DESIGNED_H_

#include <string>
#include <vector>

#include "sparql/ast.h"

namespace lbr {

/// One violation of the well-designedness condition: variable `var` occurs
/// in the right side of the offending left-join and outside it, but not in
/// the left side.
struct WdViolation {
  std::string var;
  const Algebra* left_join = nullptr;  ///< The violating kLeftJoin node.
};

/// Checks the Pérez et al. well-designedness condition (Section 2.2):
/// for every subpattern P' = (Pk leftjoin Pl), every variable of Pl that
/// also appears outside P' must appear in Pk. Returns true and leaves
/// `violations` empty iff `root` is well-designed.
bool IsWellDesigned(const Algebra& root,
                    std::vector<WdViolation>* violations = nullptr);

}  // namespace lbr

#endif  // LBR_SPARQL_WELL_DESIGNED_H_
