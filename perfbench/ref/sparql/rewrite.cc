#include "sparql/rewrite.h"

#include <set>

namespace lbr {

namespace {

// Internal record of a rule-3 expansion: the right subtree pointer is
// resolved to exclusive variables once the whole tree is known.
struct Rule3Site {
  int arm_count = 0;
  const Algebra* right_subtree = nullptr;
};

// Recursive UNF: returns union-free branches of `node`.
std::vector<std::unique_ptr<Algebra>> Unf(const Algebra& node, bool* spurious,
                                          std::vector<Rule3Site>* sites) {
  std::vector<std::unique_ptr<Algebra>> out;
  switch (node.op) {
    case Algebra::Op::kBgp:
      out.push_back(node.Clone());
      return out;
    case Algebra::Op::kUnion: {
      auto l = Unf(*node.left, spurious, sites);
      auto r = Unf(*node.right, spurious, sites);
      for (auto& b : l) out.push_back(std::move(b));
      for (auto& b : r) out.push_back(std::move(b));
      return out;
    }
    case Algebra::Op::kJoin: {
      // Rule (1), applied on both sides: cross product of branches.
      auto l = Unf(*node.left, spurious, sites);
      auto r = Unf(*node.right, spurious, sites);
      for (auto& lb : l) {
        for (auto& rb : r) {
          out.push_back(Algebra::Join(lb->Clone(), rb->Clone()));
        }
      }
      return out;
    }
    case Algebra::Op::kLeftJoin: {
      // Rule (2) distributes over the left side; rule (3) over the right,
      // which can introduce spurious (subsumed or over-counted) results.
      auto l = Unf(*node.left, spurious, sites);
      auto r = Unf(*node.right, spurious, sites);
      if (r.size() > 1) {
        *spurious = true;
        sites->push_back(
            Rule3Site{static_cast<int>(r.size()), node.right.get()});
      }
      for (auto& lb : l) {
        for (auto& rb : r) {
          out.push_back(Algebra::LeftJoin(lb->Clone(), rb->Clone()));
        }
      }
      return out;
    }
    case Algebra::Op::kFilter: {
      // Rule (5): distribute the filter over every branch of the child.
      auto c = Unf(*node.left, spurious, sites);
      for (auto& cb : c) {
        out.push_back(Algebra::Filter(node.filter, std::move(cb)));
      }
      return out;
    }
  }
  return out;
}

// Variables of every node in `root` except the `excluded` subtree.
void VarsExcludingSubtree(const Algebra& root, const Algebra* excluded,
                          std::set<std::string>* out) {
  if (&root == excluded) return;
  for (const TriplePattern& tp : root.bgp) {
    for (const std::string& v : tp.Vars()) out->insert(v);
  }
  if (root.op == Algebra::Op::kFilter) root.filter.CollectVars(out);
  if (root.left) VarsExcludingSubtree(*root.left, excluded, out);
  if (root.right) VarsExcludingSubtree(*root.right, excluded, out);
}

// Pushes safe filters toward the left side of left-joins (rule 4) so that
// each UNF branch carries its filters as low as validity permits. A filter
// may cross a left-join when its variables are covered by the left side.
std::unique_ptr<Algebra> PushFilters(std::unique_ptr<Algebra> node) {
  if (node->left) node->left = PushFilters(std::move(node->left));
  if (node->right) node->right = PushFilters(std::move(node->right));
  if (node->op != Algebra::Op::kFilter) return node;

  Algebra* child = node->left.get();
  if (child->op == Algebra::Op::kLeftJoin) {
    std::set<std::string> filter_vars;
    node->filter.CollectVars(&filter_vars);
    std::set<std::string> left_vars = child->left->Vars();
    bool covered = true;
    for (const std::string& v : filter_vars) {
      if (!left_vars.count(v)) {
        covered = false;
        break;
      }
    }
    if (covered) {
      // (P1 ⟕ P2) F(R)  =>  (P1 F(R)) ⟕ P2
      auto lj = std::move(node->left);
      auto p1 = std::move(lj->left);
      lj->left = PushFilters(Algebra::Filter(std::move(node->filter),
                                             std::move(p1)));
      return lj;
    }
  }
  return node;
}

// Substitutes every occurrence of variable `from` with `to` in a subtree.
void SubstituteVar(Algebra* node, const std::string& from,
                   const std::string& to) {
  auto fix_term = [&](PatternTerm* t) {
    if (t->is_var && t->var == from) t->var = to;
  };
  for (TriplePattern& tp : node->bgp) {
    fix_term(&tp.s);
    fix_term(&tp.p);
    fix_term(&tp.o);
  }
  if (node->op == Algebra::Op::kFilter) {
    // Substitute inside the filter expression too.
    struct Fixer {
      const std::string& from;
      const std::string& to;
      void Fix(FilterExpr* e) const {
        if (e->lhs.is_var && e->lhs.var == from) e->lhs.var = to;
        if (e->rhs.is_var && e->rhs.var == from) e->rhs.var = to;
        for (FilterExpr& c : e->children) Fix(&c);
      }
    };
    Fixer{from, to}.Fix(&node->filter);
  }
  if (node->left) SubstituteVar(node->left.get(), from, to);
  if (node->right) SubstituteVar(node->right.get(), from, to);
}

}  // namespace

UnfResult ToUnionNormalForm(const Algebra& root) {
  UnfResult result;
  bool spurious = false;
  std::vector<Rule3Site> sites;
  auto pre = root.Clone();
  result.branches = Unf(*pre, &spurious, &sites);
  for (auto& b : result.branches) {
    b = PushFilters(std::move(b));
  }
  result.may_have_spurious = spurious;
  for (const Rule3Site& site : sites) {
    UnfResult::Rule3Info info;
    info.arm_count = site.arm_count;
    std::set<std::string> right_vars = site.right_subtree->Vars();
    std::set<std::string> outside;
    VarsExcludingSubtree(*pre, site.right_subtree, &outside);
    for (const std::string& v : right_vars) {
      if (!outside.count(v)) info.exclusive_vars.insert(v);
    }
    result.rule3.push_back(std::move(info));
  }
  return result;
}

std::unique_ptr<Algebra> EliminateVarEqualities(const Algebra& root) {
  auto node = root.Clone();
  // Only a top-level Filter(?m = ?n) over a pattern is eliminated; nested
  // cases stay as-is (they are still evaluated, just not optimized away).
  while (node->op == Algebra::Op::kFilter &&
         node->filter.kind == FilterExpr::Kind::kCompare &&
         node->filter.op == CompareOp::kEq && node->filter.lhs.is_var &&
         node->filter.rhs.is_var) {
    std::string from = node->filter.rhs.var;
    std::string to = node->filter.lhs.var;
    auto child = std::move(node->left);
    SubstituteVar(child.get(), from, to);
    node = std::move(child);
  }
  return node;
}

}  // namespace lbr
