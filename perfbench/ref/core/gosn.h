#ifndef LBR_CORE_GOSN_H_
#define LBR_CORE_GOSN_H_

#include <functional>
#include <string>
#include <vector>

#include "sparql/ast.h"

namespace lbr {

/// A supernode: one OPT-free BGP of the query (Section 2.1). Holds the
/// indexes of the TPs it encapsulates (into Gosn::tps()).
struct SuperNode {
  int id = 0;
  std::vector<int> tp_ids;
};

/// A FILTER constraint attached to the GoSN: `scope` is the set of
/// supernodes built from the filter's child subtree; the FaN routine of
/// Section 5.2 nulls the scope (if it contains no absolute master) or drops
/// the row (if it does) when the filter fails.
struct ScopedFilter {
  FilterExpr expr;
  std::vector<int> scope_supernodes;
  /// Nesting depth of the filter node; deeper filters evaluate first.
  int depth = 0;
};

/// The query graph of supernodes (Section 2): supernodes are the OPT-free
/// BGPs of the serialized query; a unidirectional edge SNa -> SNe is added
/// for every OPT pattern (between the leftmost supernodes of its sides) and
/// a bidirectional edge for every inner join whose operands nest OPT
/// patterns.
///
/// Derived relations (Section 2.2):
///  - master/slave: SNx is a master of SNy iff SNy is reachable from SNx
///    over a path with at least one unidirectional edge;
///  - peers: connected through bidirectional edges only;
///  - absolute masters: supernodes of which no supernode is a master.
class Gosn {
 public:
  /// Builds the GoSN for a UNION-free algebra tree. FILTER nodes are
  /// collected into `filters()` with their supernode scopes; everything else
  /// must be BGP/Join/LeftJoin. Throws UnsupportedQueryError (from
  /// tp_loader.h) via std::runtime_error subtypes on empty-BGP supernodes in
  /// multi-supernode queries.
  static Gosn Build(const Algebra& root);

  int num_supernodes() const { return static_cast<int>(supernodes_.size()); }
  const std::vector<SuperNode>& supernodes() const { return supernodes_; }
  const SuperNode& supernode(int id) const { return supernodes_[id]; }

  /// All TPs of the query, in serialization (left-to-right) order.
  const std::vector<TriplePattern>& tps() const { return tps_; }
  int SupernodeOf(int tp_id) const { return tp_supernode_[tp_id]; }

  const std::vector<ScopedFilter>& filters() const { return filters_; }

  /// True iff `a` is a (transitive) master of `b` (a != b).
  bool IsMasterOf(int a, int b) const { return master_of_[a][b]; }
  /// True iff `a` and `b` are peers (same bidirectional component; a == b
  /// counts as peer).
  bool IsPeer(int a, int b) const { return peer_group_[a] == peer_group_[b]; }
  bool IsAbsoluteMaster(int sn) const { return absolute_master_[sn]; }

  /// TP-level relations (Section 2.2 extends the nomenclature to TPs).
  bool TpIsMasterOf(int tp_a, int tp_b) const {
    return IsMasterOf(SupernodeOf(tp_a), SupernodeOf(tp_b));
  }
  bool TpIsPeer(int tp_a, int tp_b) const {
    return IsPeer(SupernodeOf(tp_a), SupernodeOf(tp_b));
  }

  /// All supernodes in `sn`'s peer group, ascending id (includes `sn`).
  std::vector<int> PeersOf(int sn) const;
  /// Supernode ids of absolute masters, ascending.
  std::vector<int> AbsoluteMasters() const;
  /// Supernode ids that are not absolute masters (the slaves), ascending.
  std::vector<int> SlaveSupernodes() const;

  /// Direct unidirectional out-edges (master -> slave) and bidirectional
  /// edges as added during construction, for tests and debugging.
  const std::vector<std::pair<int, int>>& uni_edges() const {
    return uni_edges_;
  }
  const std::vector<std::pair<int, int>>& bidi_edges() const {
    return bidi_edges_;
  }

  /// Supernode scopes of the two sides of each OPT pattern (parallel to
  /// uni_edges()); used by the Appendix B violation analysis.
  struct OptScope {
    std::vector<int> left;
    std::vector<int> right;
  };
  const std::vector<OptScope>& opt_scopes() const { return opt_scopes_; }

  /// Appendix B: supernode pairs (slave-side SN, outside SN) violating the
  /// well-designedness condition — a variable occurs in a supernode of an
  /// OPT pattern's right side and in a supernode outside the pattern, but
  /// in no supernode of the pattern's left side. Empty iff well-designed.
  std::vector<std::pair<int, int>> ComputeWdViolationPairs() const;

  /// Converts `uni` edges into `bidi` along the undirected path between the
  /// supernodes of every violation pair — the non-well-designed query
  /// transformation of Appendix B. Relations are recomputed.
  void ConvertViolationPairs(
      const std::vector<std::pair<int, int>>& violation_sn_pairs);

  /// Depth of `sn` in the master hierarchy: 0 for absolute masters, else
  /// 1 + max depth over its masters.
  int MasterDepth(int sn) const { return master_depth_[sn]; }

  /// Applies `fn` to every ground Term of the graph: the fixed positions of
  /// each TP and the fixed operands of every scoped filter. Constant
  /// rebinding for the plan cache: a cached GoSN is a value, so a copy can
  /// have its slot markers substituted with concrete terms without touching
  /// any structural state (supernodes, edges, relations are term-agnostic).
  void RewriteConstants(const std::function<void(Term*)>& fn);

 private:
  void ComputeRelations();

  std::vector<SuperNode> supernodes_;
  std::vector<TriplePattern> tps_;
  std::vector<int> tp_supernode_;
  std::vector<ScopedFilter> filters_;
  std::vector<std::pair<int, int>> uni_edges_;
  std::vector<std::pair<int, int>> bidi_edges_;
  std::vector<OptScope> opt_scopes_;

  // Derived.
  std::vector<std::vector<bool>> master_of_;
  std::vector<int> peer_group_;
  std::vector<bool> absolute_master_;
  std::vector<int> master_depth_;
};

/// Applies `fn` to every ground Term in one scoped filter's expression
/// tree. The per-filter counterpart of Gosn::RewriteConstants, for callers
/// that rebind filters copied out of a cached template.
void RewriteScopedFilterTerms(ScopedFilter* filter,
                              const std::function<void(Term*)>& fn);

}  // namespace lbr

#endif  // LBR_CORE_GOSN_H_
