#include "sparql/filter_eval.h"

#include <cstdlib>
#include <string>

namespace lbr {

namespace {

bool ParseNumeric(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  // Accept trailing datatype annotations folded into the lexical form
  // ("42^^<...integer>") by stopping at '^'.
  if (end == s.c_str()) return false;
  while (*end == ' ') ++end;
  if (*end != '\0' && *end != '^') return false;
  *out = v;
  return true;
}

FilterOutcome FromBool(bool b) {
  return b ? FilterOutcome::kTrue : FilterOutcome::kFalse;
}

}  // namespace

int CompareTerms(const Term& a, const Term& b) {
  double x = 0, y = 0;
  if (a.kind == TermKind::kLiteral && b.kind == TermKind::kLiteral &&
      ParseNumeric(a.value, &x) && ParseNumeric(b.value, &y)) {
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a.kind != b.kind) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind) ? -1 : 1;
  }
  return a.value.compare(b.value) < 0 ? -1 : (a.value == b.value ? 0 : 1);
}

FilterOutcome EvaluateFilter(const FilterExpr& expr, const VarLookup& lookup) {
  switch (expr.kind) {
    case FilterExpr::Kind::kTrue:
      return FilterOutcome::kTrue;
    case FilterExpr::Kind::kBound: {
      return FromBool(lookup(expr.lhs.var).has_value());
    }
    case FilterExpr::Kind::kCompare: {
      auto resolve = [&lookup](const PatternTerm& t) -> std::optional<Term> {
        if (t.is_var) return lookup(t.var);
        return t.term;
      };
      std::optional<Term> l = resolve(expr.lhs);
      std::optional<Term> r = resolve(expr.rhs);
      if (!l || !r) return FilterOutcome::kError;
      switch (expr.op) {
        case CompareOp::kEq:
          return FromBool(*l == *r);
        case CompareOp::kNe:
          return FromBool(!(*l == *r));
        case CompareOp::kLt:
          return FromBool(CompareTerms(*l, *r) < 0);
        case CompareOp::kLe:
          return FromBool(CompareTerms(*l, *r) <= 0);
        case CompareOp::kGt:
          return FromBool(CompareTerms(*l, *r) > 0);
        case CompareOp::kGe:
          return FromBool(CompareTerms(*l, *r) >= 0);
      }
      return FilterOutcome::kError;
    }
    case FilterExpr::Kind::kNot: {
      FilterOutcome c = EvaluateFilter(expr.children[0], lookup);
      if (c == FilterOutcome::kError) return c;
      return c == FilterOutcome::kTrue ? FilterOutcome::kFalse
                                       : FilterOutcome::kTrue;
    }
    case FilterExpr::Kind::kAnd: {
      FilterOutcome a = EvaluateFilter(expr.children[0], lookup);
      FilterOutcome b = EvaluateFilter(expr.children[1], lookup);
      if (a == FilterOutcome::kFalse || b == FilterOutcome::kFalse) {
        return FilterOutcome::kFalse;
      }
      if (a == FilterOutcome::kError || b == FilterOutcome::kError) {
        return FilterOutcome::kError;
      }
      return FilterOutcome::kTrue;
    }
    case FilterExpr::Kind::kOr: {
      FilterOutcome a = EvaluateFilter(expr.children[0], lookup);
      FilterOutcome b = EvaluateFilter(expr.children[1], lookup);
      if (a == FilterOutcome::kTrue || b == FilterOutcome::kTrue) {
        return FilterOutcome::kTrue;
      }
      if (a == FilterOutcome::kError || b == FilterOutcome::kError) {
        return FilterOutcome::kError;
      }
      return FilterOutcome::kFalse;
    }
  }
  return FilterOutcome::kError;
}

bool FilterPasses(const FilterExpr& expr, const VarLookup& lookup) {
  return EvaluateFilter(expr, lookup) == FilterOutcome::kTrue;
}

}  // namespace lbr
