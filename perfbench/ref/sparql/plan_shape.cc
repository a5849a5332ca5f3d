#include "sparql/plan_shape.h"

#include <map>
#include <stdexcept>

#include "sparql/parser.h"

namespace lbr {

namespace {

std::string MarkerValue(size_t slot) {
  return std::string(kShapeParamPrefix) + std::to_string(slot);
}

// One printable tag per token kind for the key serialization. Tags must be
// distinct and never appear in '\x1e'/'\x1f'-separated positions ambiguously;
// values are user-controlled but the separators are non-printable, so the
// serialization is injective on token streams.
char KindTag(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof: return 'E';
    case TokenKind::kKeyword: return 'K';
    case TokenKind::kVar: return 'V';
    case TokenKind::kIriRef: return 'I';
    case TokenKind::kPname: return 'P';
    case TokenKind::kLiteral: return 'L';
    case TokenKind::kBlank: return 'B';
    case TokenKind::kStar: return '*';
    case TokenKind::kDot: return '.';
    case TokenKind::kLbrace: return '{';
    case TokenKind::kRbrace: return '}';
    case TokenKind::kLparen: return '(';
    case TokenKind::kRparen: return ')';
    case TokenKind::kComma: return ',';
    case TokenKind::kSemicolon: return ';';
    case TokenKind::kOp: return 'O';
    case TokenKind::kNumber: return 'N';
  }
  return '?';
}

}  // namespace

QueryShape CanonicalizeQuery(std::string_view text, ShapeDetail detail) {
  std::vector<Token> raw = Lexer::Tokenize(text);
  QueryShape shape;
  const bool want_tokens = detail == ShapeDetail::kFull;
  if (want_tokens) shape.tokens.reserve(raw.size());
  shape.key.reserve(text.size());

  // Consume the PREFIX prologue into a local table; it is not part of the
  // shape. A malformed prologue is left in place so the template parse
  // reports the same error the direct parse would.
  std::map<std::string, std::string> prefixes;
  size_t pos = 0;
  while (pos + 2 < raw.size() && raw[pos].IsKeyword("PREFIX") &&
         raw[pos + 1].kind == TokenKind::kPname &&
         !raw[pos + 1].value.empty() && raw[pos + 1].value.back() == ':' &&
         raw[pos + 2].kind == TokenKind::kIriRef) {
    std::string prefix = raw[pos + 1].value;
    prefix.pop_back();
    prefixes[prefix] = raw[pos + 2].value;
    pos += 3;
  }

  for (; pos < raw.size(); ++pos) {
    Token t = std::move(raw[pos]);
    // Abstracted constants contribute only their kind tag to the key: the
    // slot number is implied by occurrence order, so two queries share a
    // key iff their non-constant tokens match position by position.
    bool is_constant = true;
    switch (t.kind) {
      case TokenKind::kIriRef:
        shape.constants.push_back(Term::Iri(std::move(t.value)));
        break;
      case TokenKind::kPname:
        shape.constants.push_back(ResolvePnameTerm(t.value, prefixes));
        t.kind = TokenKind::kIriRef;
        break;
      case TokenKind::kBlank:
        shape.constants.push_back(Term::Blank(std::move(t.value)));
        t.kind = TokenKind::kIriRef;
        break;
      case TokenKind::kLiteral:
        shape.constants.push_back(Term::Literal(std::move(t.value)));
        break;
      case TokenKind::kNumber:
        shape.constants.push_back(Term::Literal(std::move(t.value)));
        t.kind = TokenKind::kLiteral;
        break;
      default:
        // Keywords (incl. the structural `a` = rdf:type), variables,
        // operators, punctuation: shape-defining, kept verbatim.
        is_constant = false;
        break;
    }
    shape.key += KindTag(t.kind);
    if (!is_constant) shape.key += t.value;
    shape.key += '\x1f';
    if (want_tokens) {
      if (is_constant) t.value = MarkerValue(shape.constants.size() - 1);
      shape.tokens.push_back(std::move(t));
    }
  }
  return shape;
}

bool IsShapeParam(const Term& term, size_t* slot) {
  if (term.kind != TermKind::kIri && term.kind != TermKind::kLiteral) {
    return false;
  }
  const std::string& v = term.value;
  if (v.compare(0, kShapeParamPrefix.size(), kShapeParamPrefix) != 0) {
    return false;
  }
  size_t idx = 0;
  for (size_t i = kShapeParamPrefix.size(); i < v.size(); ++i) {
    if (v[i] < '0' || v[i] > '9') return false;
    idx = idx * 10 + static_cast<size_t>(v[i] - '0');
  }
  if (v.size() == kShapeParamPrefix.size()) return false;
  if (slot) *slot = idx;
  return true;
}

}  // namespace lbr
