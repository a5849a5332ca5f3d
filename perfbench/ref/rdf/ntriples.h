#ifndef LBR_RDF_NTRIPLES_H_
#define LBR_RDF_NTRIPLES_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"

namespace lbr {

/// Minimal N-Triples reader/writer (the serialization the paper's datasets
/// ship in; see RDF 1.1 N-Triples).
///
/// Supported syntax per line:  <s> <p> <o> .   where each position is an IRI
/// (<...>), a blank node (_:label), or — at object position — a literal
/// ("..." with optional @lang or ^^<datatype>, both folded into the lexical
/// form). Comment lines (#) and blank lines are skipped.
class NTriples {
 public:
  /// Parses one line; returns false on a skipped (blank/comment) line.
  /// Throws std::invalid_argument on malformed input, citing `line_no`.
  static bool ParseLine(std::string_view line, size_t line_no,
                        TermTriple* out);

  /// Parses a whole document.
  static std::vector<TermTriple> ParseString(std::string_view text);

  /// Parses an N-Triples file from a stream.
  static std::vector<TermTriple> ParseStream(std::istream* in);

  /// Serializes one triple as a canonical N-Triples line (no trailing \n).
  static std::string ToLine(const TermTriple& t);

  /// Writes a whole document.
  static void WriteStream(const std::vector<TermTriple>& triples,
                          std::ostream* out);
};

}  // namespace lbr

#endif  // LBR_RDF_NTRIPLES_H_
