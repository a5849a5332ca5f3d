#ifndef LBR_SPARQL_AST_H_
#define LBR_SPARQL_AST_H_

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rdf/term.h"

namespace lbr {

/// One position of a triple pattern: either a variable or a fixed RDF term.
struct PatternTerm {
  bool is_var = false;
  std::string var;  ///< Variable name without '?', valid when is_var.
  Term term;        ///< Fixed term, valid when !is_var.

  static PatternTerm Var(std::string name) {
    PatternTerm t;
    t.is_var = true;
    t.var = std::move(name);
    return t;
  }
  static PatternTerm Fixed(Term term) {
    PatternTerm t;
    t.term = std::move(term);
    return t;
  }

  bool operator==(const PatternTerm& o) const {
    if (is_var != o.is_var) return false;
    return is_var ? var == o.var : term == o.term;
  }

  std::string ToString() const {
    return is_var ? "?" + var : term.ToString();
  }
};

/// A SPARQL triple pattern (TP).
struct TriplePattern {
  PatternTerm s, p, o;

  TriplePattern() = default;
  TriplePattern(PatternTerm s_, PatternTerm p_, PatternTerm o_)
      : s(std::move(s_)), p(std::move(p_)), o(std::move(o_)) {}

  /// Variable names used by this TP (deduplicated, in S,P,O order).
  std::vector<std::string> Vars() const {
    std::vector<std::string> out;
    auto add = [&out](const PatternTerm& t) {
      if (t.is_var &&
          std::find(out.begin(), out.end(), t.var) == out.end()) {
        out.push_back(t.var);
      }
    };
    add(s);
    add(p);
    add(o);
    return out;
  }

  bool UsesVar(const std::string& name) const {
    return (s.is_var && s.var == name) || (p.is_var && p.var == name) ||
           (o.is_var && o.var == name);
  }

  bool operator==(const TriplePattern& t) const {
    return s == t.s && p == t.p && o == t.o;
  }

  std::string ToString() const {
    return s.ToString() + " " + p.ToString() + " " + o.ToString();
  }
};

/// Comparison operator of a FILTER constraint.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// A (safe-)FILTER expression tree. Supports the constructs Section 5.2
/// discusses: comparisons between variables and constants, BOUND, and
/// boolean combinators.
struct FilterExpr {
  enum class Kind {
    kTrue,     ///< Constant true (identity filter).
    kCompare,  ///< lhs op rhs.
    kBound,    ///< BOUND(?v), with lhs the variable.
    kNot,
    kAnd,
    kOr,
  };

  Kind kind = Kind::kTrue;
  CompareOp op = CompareOp::kEq;
  PatternTerm lhs, rhs;               // kCompare / kBound
  std::vector<FilterExpr> children;   // kNot (1), kAnd/kOr (2+)

  static FilterExpr True() { return FilterExpr(); }
  static FilterExpr Compare(CompareOp op, PatternTerm l, PatternTerm r) {
    FilterExpr e;
    e.kind = Kind::kCompare;
    e.op = op;
    e.lhs = std::move(l);
    e.rhs = std::move(r);
    return e;
  }
  static FilterExpr Bound(std::string var) {
    FilterExpr e;
    e.kind = Kind::kBound;
    e.lhs = PatternTerm::Var(std::move(var));
    return e;
  }
  static FilterExpr Not(FilterExpr child) {
    FilterExpr e;
    e.kind = Kind::kNot;
    e.children.push_back(std::move(child));
    return e;
  }
  static FilterExpr And(FilterExpr a, FilterExpr b) {
    FilterExpr e;
    e.kind = Kind::kAnd;
    e.children.push_back(std::move(a));
    e.children.push_back(std::move(b));
    return e;
  }
  static FilterExpr Or(FilterExpr a, FilterExpr b) {
    FilterExpr e;
    e.kind = Kind::kOr;
    e.children.push_back(std::move(a));
    e.children.push_back(std::move(b));
    return e;
  }

  /// Collects every variable mentioned by the expression.
  void CollectVars(std::set<std::string>* out) const;

  std::string ToString() const;
};

/// Algebra operator tree for a SPARQL query body: the serialized
/// BGP / inner-join / left-outer-join / union / filter form of Section 2.1.
struct Algebra {
  enum class Op {
    kBgp,       ///< OPT-free basic graph pattern (leaf).
    kJoin,      ///< left ⋈ right.
    kLeftJoin,  ///< left ⟕ right (OPTIONAL).
    kUnion,     ///< left ∪ right.
    kFilter,    ///< filter(expr, left).
  };

  Op op = Op::kBgp;
  std::vector<TriplePattern> bgp;   // kBgp
  std::unique_ptr<Algebra> left;    // kJoin/kLeftJoin/kUnion/kFilter
  std::unique_ptr<Algebra> right;   // kJoin/kLeftJoin/kUnion
  FilterExpr filter;                // kFilter

  static std::unique_ptr<Algebra> Bgp(std::vector<TriplePattern> tps);
  static std::unique_ptr<Algebra> Join(std::unique_ptr<Algebra> l,
                                       std::unique_ptr<Algebra> r);
  static std::unique_ptr<Algebra> LeftJoin(std::unique_ptr<Algebra> l,
                                           std::unique_ptr<Algebra> r);
  static std::unique_ptr<Algebra> Union(std::unique_ptr<Algebra> l,
                                        std::unique_ptr<Algebra> r);
  static std::unique_ptr<Algebra> Filter(FilterExpr f,
                                         std::unique_ptr<Algebra> child);

  std::unique_ptr<Algebra> Clone() const;

  /// All variables in the subtree (TPs and filters).
  void CollectVars(std::set<std::string>* out) const;
  std::set<std::string> Vars() const;

  /// All TPs in the subtree, left-to-right.
  void CollectTriplePatterns(std::vector<const TriplePattern*>* out) const;

  /// True iff the subtree contains no kLeftJoin (an "OPT-free" pattern).
  bool IsOptFree() const;
  /// True iff the subtree contains a kUnion.
  bool HasUnion() const;
  /// True iff the subtree contains a kFilter.
  bool HasFilter() const;

  /// Serialized ⋈ / ⟕ / ∪ form with parentheses, e.g.
  /// "((tp1) leftjoin ((tp2 . tp3)))".
  std::string ToString() const;
};

/// A parsed SPARQL query: projection plus algebra body.
struct ParsedQuery {
  bool select_all = false;                ///< SELECT *
  std::vector<std::string> select_vars;   ///< Explicit projection, in order.
  std::unique_ptr<Algebra> body;

  /// Effective projection: the SELECTed variables, or every variable of the
  /// body for SELECT * (sorted for determinism).
  std::vector<std::string> EffectiveProjection() const;
};

}  // namespace lbr

#endif  // LBR_SPARQL_AST_H_
