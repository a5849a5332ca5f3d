#include "sparql/well_designed.h"

#include <set>

namespace lbr {

namespace {

// Walks the tree; for each kLeftJoin node found, checks its condition
// against `outside`, the variables occurring anywhere outside the node.
void Check(const Algebra& node, const std::set<std::string>& outside,
           std::vector<WdViolation>* violations) {
  if (node.op == Algebra::Op::kLeftJoin) {
    std::set<std::string> left_vars = node.left->Vars();
    std::set<std::string> right_vars = node.right->Vars();
    for (const std::string& v : right_vars) {
      if (outside.count(v) && !left_vars.count(v)) {
        violations->push_back(WdViolation{v, &node});
      }
    }
  }
  // UNION branches are alternative patterns, not co-occurring ones: each
  // branch is checked against the node's own outside only (the condition is
  // evaluated per union-free branch, as in the UNF rewrite).
  if (node.op == Algebra::Op::kUnion) {
    Check(*node.left, outside, violations);
    Check(*node.right, outside, violations);
    return;
  }
  // Recurse: the "outside" of a child is everything outside this node plus
  // the sibling's variables.
  if (node.left && node.right) {
    std::set<std::string> left_outside = outside;
    node.right->CollectVars(&left_outside);
    Check(*node.left, left_outside, violations);

    std::set<std::string> right_outside = outside;
    node.left->CollectVars(&right_outside);
    Check(*node.right, right_outside, violations);
  } else if (node.left) {
    std::set<std::string> child_outside = outside;
    if (node.op == Algebra::Op::kFilter) {
      // Filter variables count as occurrences outside the child pattern.
      node.filter.CollectVars(&child_outside);
    }
    Check(*node.left, child_outside, violations);
  }
}

}  // namespace

bool IsWellDesigned(const Algebra& root, std::vector<WdViolation>* violations) {
  std::vector<WdViolation> local;
  std::vector<WdViolation>* out = violations ? violations : &local;
  out->clear();
  Check(root, {}, out);
  return out->empty();
}

}  // namespace lbr
