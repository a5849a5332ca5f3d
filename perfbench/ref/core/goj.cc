#include "core/goj.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <numeric>
#include <set>

namespace lbr {

Goj Goj::Build(const std::vector<TriplePattern>& tps) {
  Goj g;
  // Count TP occurrences per variable; a join variable occurs in >= 2 TPs.
  std::map<std::string, int> occurrences;
  for (const TriplePattern& tp : tps) {
    for (const std::string& v : tp.Vars()) ++occurrences[v];
  }
  for (const auto& [var, count] : occurrences) {
    if (count >= 2) {
      g.jvar_index_[var] = static_cast<int>(g.jvars_.size());
      g.jvars_.push_back(var);
    }
  }
  int n = g.num_jvars();
  g.adj_.assign(n, {});
  g.tps_of_jvar_.assign(n, {});

  // Edge multiplicity matters for cyclicity: two *different* TPs sharing
  // the same pair of jvars form a length-2 cycle in the underlying GoT that
  // per-jvar semi-joins cannot reduce to minimality (the pair constraint is
  // lost by marginal folds). Such parallel edges make the GoJ cyclic.
  std::map<std::pair<int, int>, int> edge_multiplicity;
  for (size_t tp_id = 0; tp_id < tps.size(); ++tp_id) {
    std::vector<int> in_tp;
    for (const std::string& v : tps[tp_id].Vars()) {
      int idx = g.JvarIndex(v);
      if (idx >= 0) {
        in_tp.push_back(idx);
        g.tps_of_jvar_[idx].push_back(static_cast<int>(tp_id));
      }
    }
    for (size_t i = 0; i < in_tp.size(); ++i) {
      for (size_t j = i + 1; j < in_tp.size(); ++j) {
        int a = std::min(in_tp[i], in_tp[j]);
        int b = std::max(in_tp[i], in_tp[j]);
        if (a != b) ++edge_multiplicity[{a, b}];
      }
    }
  }
  for (const auto& [edge, count] : edge_multiplicity) {
    g.adj_[edge.first].push_back(edge.second);
    g.adj_[edge.second].push_back(edge.first);
    if (count >= 2) g.cyclic_ = true;
  }

  // Cycle detection on the simple graph (on top of the parallel-edge
  // check above): a connected component with E >= V has a cycle.
  std::vector<bool> seen(n, false);
  for (int start = 0; start < n; ++start) {
    if (seen[start]) continue;
    int nodes = 0;
    size_t degree_sum = 0;
    std::deque<int> queue{start};
    seen[start] = true;
    while (!queue.empty()) {
      int v = queue.front();
      queue.pop_front();
      ++nodes;
      degree_sum += g.adj_[v].size();
      for (int to : g.adj_[v]) {
        if (!seen[to]) {
          seen[to] = true;
          queue.push_back(to);
        }
      }
    }
    size_t num_edges = degree_sum / 2;
    if (num_edges >= static_cast<size_t>(nodes)) {
      g.cyclic_ = true;
      break;
    }
  }
  return g;
}

int Goj::JvarIndex(const std::string& var) const {
  auto it = jvar_index_.find(var);
  return it == jvar_index_.end() ? -1 : it->second;
}

bool Goj::HasEdge(int a, int b) const {
  return std::find(adj_[a].begin(), adj_[a].end(), b) != adj_[a].end();
}

bool Goj::IsConnectedQuery(const std::vector<TriplePattern>& tps) {
  // Union-find over TPs sharing any variable; variable-free TPs are
  // existence guards and do not participate.
  std::vector<int> with_vars;
  for (size_t i = 0; i < tps.size(); ++i) {
    if (!tps[i].Vars().empty()) with_vars.push_back(static_cast<int>(i));
  }
  if (with_vars.size() <= 1) return true;

  std::vector<int> parent(tps.size());
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::map<std::string, int> first_tp_with;
  for (int i : with_vars) {
    for (const std::string& v : tps[i].Vars()) {
      auto [it, inserted] = first_tp_with.emplace(v, i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  int root = find(with_vars[0]);
  for (int i : with_vars) {
    if (find(i) != root) return false;
  }
  return true;
}

Goj::InducedTree Goj::GetTree(const std::vector<int>& members,
                              int root) const {
  InducedTree tree;
  std::set<int> member_set(members.begin(), members.end());
  std::map<int, int> position;  // jvar index -> position in tree.members

  auto bfs_from = [&](int start) {
    std::deque<int> queue{start};
    position[start] = static_cast<int>(tree.members.size());
    tree.members.push_back(start);
    tree.parent.push_back(-1);
    while (!queue.empty()) {
      int v = queue.front();
      queue.pop_front();
      for (int to : adj_[v]) {
        if (!member_set.count(to) || position.count(to)) continue;
        position[to] = static_cast<int>(tree.members.size());
        tree.members.push_back(to);
        tree.parent.push_back(position[v]);
        queue.push_back(to);
      }
    }
  };

  if (member_set.count(root)) bfs_from(root);
  // Remaining components (induced subgraph may be a forest).
  for (int m : members) {
    if (!position.count(m)) bfs_from(m);
  }
  return tree;
}

std::vector<int> Goj::BottomUp(const InducedTree& tree) {
  std::vector<int> order(tree.members.rbegin(), tree.members.rend());
  return order;
}

std::vector<int> Goj::TopDown(const InducedTree& tree) {
  return tree.members;
}

}  // namespace lbr
