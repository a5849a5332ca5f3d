#ifndef LBR_CORE_GOJ_H_
#define LBR_CORE_GOJ_H_

#include <map>
#include <string>
#include <vector>

#include "sparql/ast.h"

namespace lbr {

/// The graph of join variables (GoJ, Section 3.1): one node per join
/// variable (a variable shared by at least two TPs); an undirected edge
/// between two jvar-nodes iff they appear together in some TP.
///
/// GoJ acyclicity is the property that drives Lemma 3.3: an acyclic GoJ
/// means semi-join passes can reach minimal triple sets and nullification /
/// best-match can be skipped.
class Goj {
 public:
  /// Builds the GoJ from the query's TPs.
  static Goj Build(const std::vector<TriplePattern>& tps);

  int num_jvars() const { return static_cast<int>(jvars_.size()); }
  const std::vector<std::string>& jvars() const { return jvars_; }
  /// Index of `var` among jvars, or -1 if it is not a join variable.
  int JvarIndex(const std::string& var) const;
  bool IsJvar(const std::string& var) const { return JvarIndex(var) >= 0; }

  /// Adjacency over jvar indexes (simple graph: parallel co-occurrences
  /// collapse to one edge, mirroring the removal of redundant GoT cycles).
  const std::vector<std::vector<int>>& adjacency() const { return adj_; }
  bool HasEdge(int a, int b) const;

  /// True iff the simple graph has a cycle.
  bool IsCyclic() const { return cyclic_; }

  /// TPs (by id) containing each jvar.
  const std::vector<std::vector<int>>& tps_of_jvar() const {
    return tps_of_jvar_;
  }

  /// True iff the GoT (TPs connected by shared variables — join or not) is
  /// connected, i.e. the query has no Cartesian product. TPs without
  /// variables are ignored.
  static bool IsConnectedQuery(const std::vector<TriplePattern>& tps);

  /// A rooted spanning tree of the subgraph induced by `members` (jvar
  /// indexes): parent[i] over positions of `members`, -1 for roots. If the
  /// induced subgraph is a forest, every extra component gets its own root.
  struct InducedTree {
    std::vector<int> members;  ///< jvar indexes, BFS order from the root.
    std::vector<int> parent;   ///< position into `members`, -1 for roots.
  };
  InducedTree GetTree(const std::vector<int>& members, int root) const;

  /// Bottom-up order of an induced tree: children strictly before parents
  /// (reverse BFS order).
  static std::vector<int> BottomUp(const InducedTree& tree);
  /// Top-down order: parents strictly before children (BFS order).
  static std::vector<int> TopDown(const InducedTree& tree);

 private:
  std::vector<std::string> jvars_;
  std::map<std::string, int> jvar_index_;
  std::vector<std::vector<int>> adj_;
  std::vector<std::vector<int>> tps_of_jvar_;
  bool cyclic_ = false;
};

}  // namespace lbr

#endif  // LBR_CORE_GOJ_H_
