#ifndef LBR_SPARQL_LEXER_H_
#define LBR_SPARQL_LEXER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace lbr {

/// Token kinds of the SPARQL subset the parser understands.
enum class TokenKind {
  kEof,
  kKeyword,   ///< SELECT, WHERE, OPTIONAL, UNION, FILTER, PREFIX, BOUND, A.
  kVar,       ///< ?name or $name (value excludes the sigil).
  kIriRef,    ///< <...> (value excludes the brackets).
  kPname,     ///< prefix:local or prefix: (value is the raw text).
  kLiteral,   ///< "..." with @lang/^^type folded in (value is lexical form).
  kBlank,     ///< _:label (value excludes "_:").
  kStar,      ///< *
  kDot,       ///< .
  kLbrace,    ///< {
  kRbrace,    ///< }
  kLparen,    ///< (
  kRparen,    ///< )
  kComma,     ///< ,
  kSemicolon, ///< ;
  kOp,        ///< = != < <= > >= ! && ||
  kNumber,    ///< Integer or decimal literal (value is the raw text).
};

/// A lexed token with source position for error messages.
struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string value;
  size_t line = 0;
  size_t col = 0;

  bool IsKeyword(std::string_view kw) const;
};

/// Hand-rolled SPARQL lexer. Keywords are case-insensitive; `a` is lexed as
/// a keyword (the rdf:type shorthand). Comments (#) run to end of line.
class Lexer {
 public:
  /// Tokenizes the whole input. Throws std::invalid_argument on bad input.
  static std::vector<Token> Tokenize(std::string_view text);
};

}  // namespace lbr

#endif  // LBR_SPARQL_LEXER_H_
