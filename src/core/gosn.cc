#include "core/gosn.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <numeric>
#include <set>
#include <stdexcept>

#include "bitmat/tp_loader.h"  // UnsupportedQueryError

namespace lbr {

namespace {

// Recursive GoSN builder. Returns the id of the leftmost supernode of the
// subtree (Section 2.1: edges connect leftmost OPT-free BGPs).
struct Builder {
  Gosn* g;
  std::vector<SuperNode>* sns;
  std::vector<TriplePattern>* tps;
  std::vector<int>* tp_sn;
  std::vector<ScopedFilter>* filters;
  std::vector<std::pair<int, int>>* uni;
  std::vector<std::pair<int, int>>* bidi;
  std::vector<Gosn::OptScope>* opt_scopes;

  // Collects the TPs of a maximal OPT-free subtree into one supernode.
  void CollectBgp(const Algebra& node, int sn_id) {
    for (const TriplePattern& tp : node.bgp) {
      int tp_id = static_cast<int>(tps->size());
      tps->push_back(tp);
      tp_sn->push_back(sn_id);
      (*sns)[sn_id].tp_ids.push_back(tp_id);
    }
    if (node.op == Algebra::Op::kFilter) {
      filters->push_back(
          ScopedFilter{node.filter, {sn_id}, /*depth=*/0});
    }
    if (node.left) CollectBgp(*node.left, sn_id);
    if (node.right) CollectBgp(*node.right, sn_id);
  }

  // Returns (leftmost supernode id, set of supernodes in subtree).
  std::pair<int, std::vector<int>> Walk(const Algebra& node, int depth) {
    if (node.op == Algebra::Op::kUnion) {
      throw UnsupportedQueryError(
          "GoSN requires a UNION-free pattern; rewrite to UNF first");
    }
    if (node.op == Algebra::Op::kFilter) {
      auto [leftmost, scope] = Walk(*node.left, depth + 1);
      filters->push_back(ScopedFilter{node.filter, scope, depth});
      return {leftmost, scope};
    }
    if (node.IsOptFree()) {
      // Maximal OPT-free subtree: one supernode. Nested filters inside an
      // OPT-free subtree scope to this supernode.
      int sn_id = static_cast<int>(sns->size());
      sns->push_back(SuperNode{sn_id, {}});
      CollectBgp(node, sn_id);
      return {sn_id, {sn_id}};
    }
    // A Join or LeftJoin with an OPT somewhere below.
    auto [lm_l, scope_l] = Walk(*node.left, depth + 1);
    auto [lm_r, scope_r] = Walk(*node.right, depth + 1);
    if (node.op == Algebra::Op::kLeftJoin) {
      uni->emplace_back(lm_l, lm_r);
      opt_scopes->push_back(Gosn::OptScope{scope_l, scope_r});
    } else {
      bidi->emplace_back(lm_l, lm_r);
    }
    std::vector<int> scope = scope_l;
    scope.insert(scope.end(), scope_r.begin(), scope_r.end());
    return {lm_l, scope};
  }
};

}  // namespace

Gosn Gosn::Build(const Algebra& root) {
  Gosn g;
  Builder b{&g,           &g.supernodes_, &g.tps_,       &g.tp_supernode_,
            &g.filters_,  &g.uni_edges_,  &g.bidi_edges_, &g.opt_scopes_};
  b.Walk(root, 0);

  // Empty-BGP supernodes are only meaningful for the degenerate single-
  // supernode query (empty pattern); in a multi-supernode query they would
  // represent the unit pattern, which the LBR prototype does not process.
  if (g.num_supernodes() > 1) {
    for (const SuperNode& sn : g.supernodes_) {
      if (sn.tp_ids.empty()) {
        throw UnsupportedQueryError(
            "OPTIONAL pattern with an empty group (unit pattern) is not "
            "supported by the LBR engine");
      }
    }
  }
  // Deeper filters must be applied first by FaN: sort descending by depth,
  // stable so siblings keep source order.
  std::stable_sort(g.filters_.begin(), g.filters_.end(),
                   [](const ScopedFilter& a, const ScopedFilter& b) {
                     return a.depth > b.depth;
                   });
  g.ComputeRelations();
  return g;
}

void Gosn::ComputeRelations() {
  int n = num_supernodes();
  master_of_.assign(n, std::vector<bool>(n, false));
  peer_group_.assign(n, 0);
  absolute_master_.assign(n, false);
  master_depth_.assign(n, 0);
  if (n == 0) return;

  // Peer groups: union-find over bidirectional edges.
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& [a, b] : bidi_edges_) {
    parent[find(a)] = find(b);
  }
  for (int i = 0; i < n; ++i) peer_group_[i] = find(i);

  // master_of_[a][b]: path a ->* b using bidi edges (either direction) and
  // uni edges (forward), containing at least one uni edge. BFS over states
  // (node, crossed a uni edge).
  std::vector<std::vector<std::pair<int, bool>>> adj(n);  // (to, is_uni)
  for (const auto& [a, b] : bidi_edges_) {
    adj[a].emplace_back(b, false);
    adj[b].emplace_back(a, false);
  }
  for (const auto& [a, b] : uni_edges_) {
    adj[a].emplace_back(b, true);
  }
  for (int src = 0; src < n; ++src) {
    std::vector<std::vector<bool>> seen(n, std::vector<bool>(2, false));
    std::deque<std::pair<int, bool>> queue;
    queue.emplace_back(src, false);
    seen[src][0] = true;
    while (!queue.empty()) {
      auto [node, has_uni] = queue.front();
      queue.pop_front();
      for (const auto& [to, is_uni] : adj[node]) {
        bool next_uni = has_uni || is_uni;
        if (!seen[to][next_uni]) {
          seen[to][next_uni] = true;
          queue.emplace_back(to, next_uni);
        }
      }
    }
    for (int dst = 0; dst < n; ++dst) {
      if (dst != src && seen[dst][1]) master_of_[src][dst] = true;
    }
  }

  for (int i = 0; i < n; ++i) {
    bool has_master = false;
    for (int j = 0; j < n; ++j) {
      if (j != i && master_of_[j][i]) {
        has_master = true;
        break;
      }
    }
    absolute_master_[i] = !has_master;
  }

  // Master depth: longest chain of distinct masters above. The master
  // relation is a partial order on well-designed queries; iterate to a fixed
  // point (n rounds suffice).
  for (int round = 0; round < n; ++round) {
    bool changed = false;
    for (int i = 0; i < n; ++i) {
      int depth = 0;
      for (int j = 0; j < n; ++j) {
        if (j != i && master_of_[j][i]) {
          depth = std::max(depth, master_depth_[j] + 1);
        }
      }
      if (depth != master_depth_[i]) {
        master_depth_[i] = depth;
        changed = true;
      }
    }
    if (!changed) break;
  }
}

std::vector<int> Gosn::PeersOf(int sn) const {
  std::vector<int> out;
  for (int i = 0; i < num_supernodes(); ++i) {
    if (IsPeer(sn, i)) out.push_back(i);
  }
  return out;
}

std::vector<int> Gosn::AbsoluteMasters() const {
  std::vector<int> out;
  for (int i = 0; i < num_supernodes(); ++i) {
    if (absolute_master_[i]) out.push_back(i);
  }
  return out;
}

std::vector<int> Gosn::SlaveSupernodes() const {
  std::vector<int> out;
  for (int i = 0; i < num_supernodes(); ++i) {
    if (!absolute_master_[i]) out.push_back(i);
  }
  return out;
}

std::vector<std::pair<int, int>> Gosn::ComputeWdViolationPairs() const {
  std::vector<std::pair<int, int>> pairs;
  // Variables used by each supernode's TPs.
  auto sn_uses = [this](int sn, const std::string& var) {
    for (int tp_id : supernodes_[sn].tp_ids) {
      if (tps_[tp_id].UsesVar(var)) return true;
    }
    return false;
  };
  for (size_t e = 0; e < uni_edges_.size(); ++e) {
    const OptScope& scope = opt_scopes_[e];
    std::vector<bool> inside(num_supernodes(), false);
    for (int sn : scope.left) inside[sn] = true;
    for (int sn : scope.right) inside[sn] = true;

    // Every variable of the right side...
    std::set<std::string> right_vars;
    for (int sn : scope.right) {
      for (int tp_id : supernodes_[sn].tp_ids) {
        for (const std::string& v : tps_[tp_id].Vars()) right_vars.insert(v);
      }
    }
    for (const std::string& v : right_vars) {
      // ...occurring in no left-side supernode...
      bool in_left = false;
      for (int sn : scope.left) {
        if (sn_uses(sn, v)) {
          in_left = true;
          break;
        }
      }
      if (in_left) continue;
      // ...but in some supernode outside the OPT pattern: a violation.
      for (int outside_sn = 0; outside_sn < num_supernodes(); ++outside_sn) {
        if (inside[outside_sn] || !sn_uses(outside_sn, v)) continue;
        for (int right_sn : scope.right) {
          if (sn_uses(right_sn, v)) {
            pairs.emplace_back(right_sn, outside_sn);
          }
        }
      }
    }
  }
  return pairs;
}

void Gosn::ConvertViolationPairs(
    const std::vector<std::pair<int, int>>& violation_sn_pairs) {
  // Undirected adjacency with edge identity so uni edges on the violation
  // path can be flipped to bidi.
  int n = num_supernodes();
  struct Edge {
    int to;
    bool is_uni;
    size_t index;  // into uni_edges_ or bidi_edges_
  };
  auto build_adj = [&]() {
    std::vector<std::vector<Edge>> adj(n);
    for (size_t i = 0; i < uni_edges_.size(); ++i) {
      auto [a, bb] = uni_edges_[i];
      adj[a].push_back(Edge{bb, true, i});
      adj[bb].push_back(Edge{a, true, i});
    }
    for (size_t i = 0; i < bidi_edges_.size(); ++i) {
      auto [a, bb] = bidi_edges_[i];
      adj[a].push_back(Edge{bb, false, i});
      adj[bb].push_back(Edge{a, false, i});
    }
    return adj;
  };

  for (const auto& [from, to] : violation_sn_pairs) {
    auto adj = build_adj();
    // BFS for the unique undirected path from -> to, tracking parent edges.
    std::vector<int> parent(n, -1);
    std::vector<size_t> parent_uni_edge(n, SIZE_MAX);
    std::deque<int> queue{from};
    std::vector<bool> seen(n, false);
    seen[from] = true;
    while (!queue.empty()) {
      int node = queue.front();
      queue.pop_front();
      if (node == to) break;
      for (const Edge& e : adj[node]) {
        if (seen[e.to]) continue;
        seen[e.to] = true;
        parent[e.to] = node;
        parent_uni_edge[e.to] = e.is_uni ? e.index : SIZE_MAX;
        queue.push_back(e.to);
      }
    }
    if (!seen[to]) continue;  // disconnected (shouldn't happen)
    // Convert every uni edge on the path to bidi.
    std::vector<size_t> to_convert;
    for (int node = to; node != from && node != -1; node = parent[node]) {
      if (parent_uni_edge[node] != SIZE_MAX) {
        to_convert.push_back(parent_uni_edge[node]);
      }
    }
    std::sort(to_convert.begin(), to_convert.end(), std::greater<size_t>());
    for (size_t idx : to_convert) {
      bidi_edges_.push_back(uni_edges_[idx]);
      uni_edges_.erase(uni_edges_.begin() + static_cast<long>(idx));
    }
  }
  ComputeRelations();
}

namespace {

void RewriteFilterConstants(FilterExpr* expr,
                            const std::function<void(Term*)>& fn) {
  if (!expr->lhs.is_var) fn(&expr->lhs.term);
  if (!expr->rhs.is_var) fn(&expr->rhs.term);
  for (FilterExpr& child : expr->children) {
    RewriteFilterConstants(&child, fn);
  }
}

}  // namespace

void RewriteScopedFilterTerms(ScopedFilter* filter,
                              const std::function<void(Term*)>& fn) {
  RewriteFilterConstants(&filter->expr, fn);
}

void Gosn::RewriteConstants(const std::function<void(Term*)>& fn) {
  for (TriplePattern& tp : tps_) {
    if (!tp.s.is_var) fn(&tp.s.term);
    if (!tp.p.is_var) fn(&tp.p.term);
    if (!tp.o.is_var) fn(&tp.o.term);
  }
  for (ScopedFilter& filter : filters_) {
    RewriteFilterConstants(&filter.expr, fn);
  }
}

}  // namespace lbr
