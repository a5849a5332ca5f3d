#include "sparql/ast.h"

#include <algorithm>
#include <sstream>

namespace lbr {

void FilterExpr::CollectVars(std::set<std::string>* out) const {
  switch (kind) {
    case Kind::kTrue:
      return;
    case Kind::kCompare:
      if (lhs.is_var) out->insert(lhs.var);
      if (rhs.is_var) out->insert(rhs.var);
      return;
    case Kind::kBound:
      out->insert(lhs.var);
      return;
    case Kind::kNot:
    case Kind::kAnd:
    case Kind::kOr:
      for (const FilterExpr& c : children) c.CollectVars(out);
      return;
  }
}

std::string FilterExpr::ToString() const {
  switch (kind) {
    case Kind::kTrue:
      return "true";
    case Kind::kCompare: {
      static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
      return lhs.ToString() + " " + kOps[static_cast<int>(op)] + " " +
             rhs.ToString();
    }
    case Kind::kBound:
      return "bound(" + lhs.ToString() + ")";
    case Kind::kNot:
      return "!(" + children[0].ToString() + ")";
    case Kind::kAnd:
      return "(" + children[0].ToString() + " && " + children[1].ToString() +
             ")";
    case Kind::kOr:
      return "(" + children[0].ToString() + " || " + children[1].ToString() +
             ")";
  }
  return "?";
}

std::unique_ptr<Algebra> Algebra::Bgp(std::vector<TriplePattern> tps) {
  auto node = std::make_unique<Algebra>();
  node->op = Op::kBgp;
  node->bgp = std::move(tps);
  return node;
}

std::unique_ptr<Algebra> Algebra::Join(std::unique_ptr<Algebra> l,
                                       std::unique_ptr<Algebra> r) {
  auto node = std::make_unique<Algebra>();
  node->op = Op::kJoin;
  node->left = std::move(l);
  node->right = std::move(r);
  return node;
}

std::unique_ptr<Algebra> Algebra::LeftJoin(std::unique_ptr<Algebra> l,
                                           std::unique_ptr<Algebra> r) {
  auto node = std::make_unique<Algebra>();
  node->op = Op::kLeftJoin;
  node->left = std::move(l);
  node->right = std::move(r);
  return node;
}

std::unique_ptr<Algebra> Algebra::Union(std::unique_ptr<Algebra> l,
                                        std::unique_ptr<Algebra> r) {
  auto node = std::make_unique<Algebra>();
  node->op = Op::kUnion;
  node->left = std::move(l);
  node->right = std::move(r);
  return node;
}

std::unique_ptr<Algebra> Algebra::Filter(FilterExpr f,
                                         std::unique_ptr<Algebra> child) {
  auto node = std::make_unique<Algebra>();
  node->op = Op::kFilter;
  node->filter = std::move(f);
  node->left = std::move(child);
  return node;
}

std::unique_ptr<Algebra> Algebra::Clone() const {
  auto node = std::make_unique<Algebra>();
  node->op = op;
  node->bgp = bgp;
  node->filter = filter;
  if (left) node->left = left->Clone();
  if (right) node->right = right->Clone();
  return node;
}

void Algebra::CollectVars(std::set<std::string>* out) const {
  for (const TriplePattern& tp : bgp) {
    for (const std::string& v : tp.Vars()) out->insert(v);
  }
  if (op == Op::kFilter) filter.CollectVars(out);
  if (left) left->CollectVars(out);
  if (right) right->CollectVars(out);
}

std::set<std::string> Algebra::Vars() const {
  std::set<std::string> out;
  CollectVars(&out);
  return out;
}

void Algebra::CollectTriplePatterns(
    std::vector<const TriplePattern*>* out) const {
  for (const TriplePattern& tp : bgp) out->push_back(&tp);
  if (left) left->CollectTriplePatterns(out);
  if (right) right->CollectTriplePatterns(out);
}

bool Algebra::IsOptFree() const {
  if (op == Op::kLeftJoin) return false;
  if (left && !left->IsOptFree()) return false;
  if (right && !right->IsOptFree()) return false;
  return true;
}

bool Algebra::HasUnion() const {
  if (op == Op::kUnion) return true;
  if (left && left->HasUnion()) return true;
  if (right && right->HasUnion()) return true;
  return false;
}

bool Algebra::HasFilter() const {
  if (op == Op::kFilter) return true;
  if (left && left->HasFilter()) return true;
  if (right && right->HasFilter()) return true;
  return false;
}

std::string Algebra::ToString() const {
  std::ostringstream os;
  switch (op) {
    case Op::kBgp: {
      os << "(";
      for (size_t i = 0; i < bgp.size(); ++i) {
        if (i > 0) os << " . ";
        os << bgp[i].ToString();
      }
      os << ")";
      break;
    }
    case Op::kJoin:
      os << "(" << left->ToString() << " join " << right->ToString() << ")";
      break;
    case Op::kLeftJoin:
      os << "(" << left->ToString() << " leftjoin " << right->ToString()
         << ")";
      break;
    case Op::kUnion:
      os << "(" << left->ToString() << " union " << right->ToString() << ")";
      break;
    case Op::kFilter:
      os << "(filter [" << filter.ToString() << "] " << left->ToString()
         << ")";
      break;
  }
  return os.str();
}

std::vector<std::string> ParsedQuery::EffectiveProjection() const {
  if (!select_all) return select_vars;
  std::set<std::string> vars = body->Vars();
  return std::vector<std::string>(vars.begin(), vars.end());
}

}  // namespace lbr
