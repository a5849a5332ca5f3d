#include "sparql/parser.h"

#include <stdexcept>
#include <vector>

#include "sparql/lexer.h"

namespace lbr {

namespace {

class ParserImpl {
 public:
  explicit ParserImpl(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  ParsedQuery ParseQuery() {
    ParsePrologue();
    Expect(TokenKind::kKeyword, "SELECT");
    ParsedQuery q;
    if (Peek().kind == TokenKind::kStar) {
      Advance();
      q.select_all = true;
    } else {
      while (Peek().kind == TokenKind::kVar) {
        q.select_vars.push_back(Advance().value);
      }
      if (q.select_vars.empty()) {
        Fail("expected '*' or at least one variable after SELECT");
      }
    }
    if (Peek().IsKeyword("WHERE")) Advance();
    q.body = ParseGroupGraphPattern();
    if (Peek().kind != TokenKind::kEof) Fail("trailing tokens after query");
    return q;
  }

  std::unique_ptr<Algebra> ParseGroupOnly(
      const std::map<std::string, std::string>& prefixes) {
    prefixes_ = prefixes;
    auto g = ParseGroupGraphPattern();
    if (Peek().kind != TokenKind::kEof) Fail("trailing tokens after group");
    return g;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  Token Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  [[noreturn]] void Fail(const std::string& msg) const {
    const Token& t = Peek();
    throw std::invalid_argument("SPARQL parse error at " +
                                std::to_string(t.line) + ":" +
                                std::to_string(t.col) + ": " + msg +
                                " (got '" + t.value + "')");
  }

  Token Expect(TokenKind kind, std::string_view value = {}) {
    const Token& t = Peek();
    if (t.kind != kind || (!value.empty() && t.value != value)) {
      Fail("expected " + std::string(value.empty() ? "token" : value));
    }
    return Advance();
  }

  void ParsePrologue() {
    while (Peek().IsKeyword("PREFIX")) {
      Advance();
      Token name = Expect(TokenKind::kPname);
      // The pname token is "prefix:" (possibly just ":").
      std::string prefix = name.value;
      if (prefix.empty() || prefix.back() != ':') {
        Fail("PREFIX name must end with ':'");
      }
      prefix.pop_back();
      Token iri = Expect(TokenKind::kIriRef);
      prefixes_[prefix] = iri.value;
    }
  }

  Term ResolvePname(const std::string& raw) const {
    return ResolvePnameTerm(raw, prefixes_);
  }

  PatternTerm ParsePatternTerm(bool allow_literal) {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kVar:
        return PatternTerm::Var(Advance().value);
      case TokenKind::kIriRef:
        return PatternTerm::Fixed(Term::Iri(Advance().value));
      case TokenKind::kPname:
        return PatternTerm::Fixed(ResolvePname(Advance().value));
      case TokenKind::kBlank:
        return PatternTerm::Fixed(Term::Blank(Advance().value));
      case TokenKind::kLiteral:
        if (!allow_literal) Fail("literal not allowed here");
        return PatternTerm::Fixed(Term::Literal(Advance().value));
      case TokenKind::kNumber:
        if (!allow_literal) Fail("number not allowed here");
        return PatternTerm::Fixed(Term::Literal(Advance().value));
      case TokenKind::kKeyword:
        if (t.value == "A") {
          Advance();
          return PatternTerm::Fixed(
              Term::Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"));
        }
        Fail("unexpected keyword in triple pattern");
      default:
        Fail("expected a term");
    }
  }

  // Parses a contiguous block of triple patterns, supporting ';' (shared
  // subject) and ',' (shared subject+predicate) abbreviations.
  void ParseTriplesBlock(std::vector<TriplePattern>* out) {
    for (;;) {
      PatternTerm subject = ParsePatternTerm(/*allow_literal=*/false);
      for (;;) {
        PatternTerm pred = ParsePatternTerm(/*allow_literal=*/false);
        for (;;) {
          PatternTerm object = ParsePatternTerm(/*allow_literal=*/true);
          out->emplace_back(subject, pred, object);
          if (Peek().kind == TokenKind::kComma) {
            Advance();
            continue;
          }
          break;
        }
        if (Peek().kind == TokenKind::kSemicolon) {
          Advance();
          continue;
        }
        break;
      }
      if (Peek().kind == TokenKind::kDot) {
        Advance();
        // A '.' may terminate the block or separate two triples.
        if (IsTermStart(Peek())) continue;
      }
      break;
    }
  }

  static bool IsTermStart(const Token& t) {
    switch (t.kind) {
      case TokenKind::kVar:
      case TokenKind::kIriRef:
      case TokenKind::kPname:
      case TokenKind::kBlank:
        return true;
      case TokenKind::kKeyword:
        return t.value == "A";
      default:
        return false;
    }
  }

  // GroupGraphPattern := '{' ( TriplesBlock | OPTIONAL GGP |
  //                            GGP (UNION GGP)* | FILTER Constraint )* '}'
  std::unique_ptr<Algebra> ParseGroupGraphPattern() {
    Expect(TokenKind::kLbrace, "{");
    std::unique_ptr<Algebra> current;  // null means "empty pattern so far"
    std::vector<FilterExpr> filters;

    auto join_in = [&current](std::unique_ptr<Algebra> next) {
      if (!current) {
        current = std::move(next);
      } else {
        current = Algebra::Join(std::move(current), std::move(next));
      }
    };

    for (;;) {
      const Token& t = Peek();
      if (t.kind == TokenKind::kRbrace) {
        Advance();
        break;
      }
      if (t.kind == TokenKind::kEof) Fail("unterminated group (missing '}')");
      if (t.IsKeyword("OPTIONAL")) {
        Advance();
        auto opt = ParseGroupGraphPattern();
        if (!current) {
          // OPTIONAL with an empty left side left-joins the unit pattern;
          // represent the unit as an empty BGP.
          current = Algebra::Bgp({});
        }
        current = Algebra::LeftJoin(std::move(current), std::move(opt));
        continue;
      }
      if (t.IsKeyword("FILTER")) {
        Advance();
        filters.push_back(ParseConstraint());
        continue;
      }
      if (t.kind == TokenKind::kLbrace) {
        auto sub = ParseGroupGraphPattern();
        // UNION chain?
        while (Peek().IsKeyword("UNION")) {
          Advance();
          auto rhs = ParseGroupGraphPattern();
          sub = Algebra::Union(std::move(sub), std::move(rhs));
        }
        join_in(std::move(sub));
        continue;
      }
      if (IsTermStart(t)) {
        std::vector<TriplePattern> tps;
        ParseTriplesBlock(&tps);
        join_in(Algebra::Bgp(std::move(tps)));
        continue;
      }
      Fail("unexpected token in group graph pattern");
    }

    if (!current) current = Algebra::Bgp({});
    for (FilterExpr& f : filters) {
      current = Algebra::Filter(std::move(f), std::move(current));
    }
    return current;
  }

  // Constraint := '(' OrExpr ')'  |  BOUND '(' Var ')'
  FilterExpr ParseConstraint() {
    if (Peek().IsKeyword("BOUND")) return ParsePrimaryExpr();
    Expect(TokenKind::kLparen, "(");
    FilterExpr e = ParseOrExpr();
    Expect(TokenKind::kRparen, ")");
    return e;
  }

  FilterExpr ParseOrExpr() {
    FilterExpr lhs = ParseAndExpr();
    while (Peek().kind == TokenKind::kOp && Peek().value == "||") {
      Advance();
      lhs = FilterExpr::Or(std::move(lhs), ParseAndExpr());
    }
    return lhs;
  }

  FilterExpr ParseAndExpr() {
    FilterExpr lhs = ParseUnaryExpr();
    while (Peek().kind == TokenKind::kOp && Peek().value == "&&") {
      Advance();
      lhs = FilterExpr::And(std::move(lhs), ParseUnaryExpr());
    }
    return lhs;
  }

  FilterExpr ParseUnaryExpr() {
    if (Peek().kind == TokenKind::kOp && Peek().value == "!") {
      Advance();
      return FilterExpr::Not(ParseUnaryExpr());
    }
    return ParsePrimaryExpr();
  }

  FilterExpr ParsePrimaryExpr() {
    if (Peek().IsKeyword("BOUND")) {
      Advance();
      Expect(TokenKind::kLparen, "(");
      Token v = Expect(TokenKind::kVar);
      Expect(TokenKind::kRparen, ")");
      return FilterExpr::Bound(v.value);
    }
    if (Peek().kind == TokenKind::kLparen) {
      Advance();
      FilterExpr e = ParseOrExpr();
      Expect(TokenKind::kRparen, ")");
      return e;
    }
    PatternTerm lhs = ParsePatternTerm(/*allow_literal=*/true);
    const Token& op = Peek();
    if (op.kind != TokenKind::kOp) Fail("expected comparison operator");
    CompareOp cmp;
    if (op.value == "=") cmp = CompareOp::kEq;
    else if (op.value == "!=") cmp = CompareOp::kNe;
    else if (op.value == "<") cmp = CompareOp::kLt;
    else if (op.value == "<=") cmp = CompareOp::kLe;
    else if (op.value == ">") cmp = CompareOp::kGt;
    else if (op.value == ">=") cmp = CompareOp::kGe;
    else Fail("unknown comparison operator");
    Advance();
    PatternTerm rhs = ParsePatternTerm(/*allow_literal=*/true);
    return FilterExpr::Compare(cmp, std::move(lhs), std::move(rhs));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::map<std::string, std::string> prefixes_;
};

}  // namespace

ParsedQuery Parser::Parse(std::string_view text) {
  ParserImpl impl(Lexer::Tokenize(text));
  return impl.ParseQuery();
}

ParsedQuery Parser::Parse(std::vector<Token> tokens) {
  ParserImpl impl(std::move(tokens));
  return impl.ParseQuery();
}

Term ResolvePnameTerm(const std::string& raw,
                      const std::map<std::string, std::string>& prefixes) {
  size_t colon = raw.find(':');
  if (colon == std::string::npos) {
    // Bare word; treat as relative IRI to keep hand-written tests terse.
    return Term::Iri(raw);
  }
  std::string prefix = raw.substr(0, colon);
  std::string local = raw.substr(colon + 1);
  auto it = prefixes.find(prefix);
  if (it == prefixes.end()) {
    // Unknown prefix: keep the raw prefixed form as the IRI. This matches
    // how the paper's appendix queries use ':Jerry' style names without a
    // declared default prefix.
    return Term::Iri(raw);
  }
  return Term::Iri(it->second + local);
}

std::unique_ptr<Algebra> Parser::ParseGroup(
    std::string_view text,
    const std::map<std::string, std::string>& prefixes) {
  ParserImpl impl(Lexer::Tokenize(text));
  return impl.ParseGroupOnly(prefixes);
}

}  // namespace lbr
