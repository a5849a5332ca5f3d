#ifndef LBR_SPARQL_PARSER_H_
#define LBR_SPARQL_PARSER_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sparql/ast.h"
#include "sparql/lexer.h"

namespace lbr {

/// Recursive-descent parser for the SPARQL subset the paper works with:
/// PREFIX declarations, SELECT (* or variable list), group graph patterns
/// with triple patterns, nested groups, OPTIONAL, UNION, and FILTER with
/// comparison / BOUND constraints.
///
/// The group-to-algebra translation follows the SPARQL 1.1 specification:
/// each contiguous triples block becomes one BGP leaf; OPTIONAL left-joins
/// the pattern accumulated so far with its group; a nested group or UNION
/// chain joins with the accumulated pattern; FILTERs collected in a group
/// apply to the whole group's result.
class Parser {
 public:
  /// Parses a full query. Throws std::invalid_argument with location info on
  /// syntax errors.
  static ParsedQuery Parse(std::string_view text);

  /// Parses an already-lexed token stream (must end with a kEof token, as
  /// Lexer::Tokenize produces). This is the plan cache's template path: the
  /// canonicalizer substitutes marker tokens for constants and feeds the
  /// modified stream here, so template and original share one grammar walk.
  static ParsedQuery Parse(std::vector<Token> tokens);

  /// Parses a query body only (a group graph pattern, starting at '{'),
  /// with the given prefix table. Useful for tests.
  static std::unique_ptr<Algebra> ParseGroup(
      std::string_view text, const std::map<std::string, std::string>& prefixes);
};

/// Resolves a pname token ("prefix:local", bare ":local", or a bare word)
/// into an IRI Term against a prefix table, with the parser's fallbacks:
/// a bare word or an undeclared prefix keeps the raw text as the IRI.
/// Shared by the parser and the plan-shape canonicalizer so both resolve
/// constants identically.
Term ResolvePnameTerm(const std::string& raw,
                      const std::map<std::string, std::string>& prefixes);

}  // namespace lbr

#endif  // LBR_SPARQL_PARSER_H_
