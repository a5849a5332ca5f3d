#ifndef LBR_SPARQL_PLAN_SHAPE_H_
#define LBR_SPARQL_PLAN_SHAPE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"
#include "sparql/lexer.h"

namespace lbr {

/// Marker IRI prefix for abstracted constants. A template term whose value
/// is "urn:lbr:param:N" stands for constant slot N; queries that use such
/// an IRI literally are themselves abstracted into slots first, so markers
/// in a template can never collide with user data.
inline constexpr std::string_view kShapeParamPrefix = "urn:lbr:param:";

/// A query canonicalized for the compiled-plan cache (DESIGN.md §10).
///
/// Canonicalization is token-level: the query text is lexed, the PREFIX
/// prologue is consumed into a prefix table (and dropped — prefixes only
/// exist to name constants, which are abstracted anyway), and every ground
/// term after the prologue is replaced by a slot marker in occurrence
/// order. Marker tokens preserve the lexical *kind* of what they replace —
/// IRI-ish constants (IRIs, pnames, blanks) become kIriRef markers, literal
/// constants (strings, numbers) become kLiteral markers — so a template
/// parses (or fails to parse) exactly where the original would: a literal
/// in subject position is still a syntax error on the template walk.
///
/// Variables, keywords (including the `a` shorthand, which is structural
/// rdf:type), operators, and punctuation stay verbatim; the shape key is
/// the serialized marker token stream. Two queries share a shape iff they
/// are the same query modulo ground terms and prefix spelling.
struct QueryShape {
  /// Canonical serialization of `tokens` — the plan-cache key.
  std::string key;
  /// The marker-substituted token stream (kEof-terminated), ready for
  /// Parser::Parse(std::vector<Token>) to compile the template once.
  std::vector<Token> tokens;
  /// The concrete constants of *this* query, in slot order: constants[i]
  /// is what marker slot i must rebind to. Pname constants are resolved
  /// against the query's own PREFIX table here, so the template needs no
  /// prologue.
  std::vector<Term> constants;
};

/// How much of the QueryShape to materialize. The cache-lookup hot path
/// only needs `key` (to probe) and `constants` (to rebind on a hit);
/// building the marker-substituted token stream costs a second pass of
/// string allocations that only a cache *miss* — which then parses the
/// template — can use. kKeyOnly leaves `tokens` empty.
enum class ShapeDetail { kKeyOnly, kFull };

/// Canonicalizes query text. Throws std::invalid_argument on lexer errors
/// (the same ones Parser::Parse would throw); grammar errors surface later
/// when the template is parsed.
QueryShape CanonicalizeQuery(std::string_view text,
                             ShapeDetail detail = ShapeDetail::kFull);

/// True iff `term` is a slot marker; on match stores the slot index.
bool IsShapeParam(const Term& term, size_t* slot);

}  // namespace lbr

#endif  // LBR_SPARQL_PLAN_SHAPE_H_
