#ifndef LBR_CORE_RESULT_WRITER_H_
#define LBR_CORE_RESULT_WRITER_H_

#include <iosfwd>
#include <string>

#include "core/engine.h"

namespace lbr {

/// Serializers for ResultTable following the W3C "SPARQL 1.1 Query Results
/// CSV and TSV Formats" conventions:
///  - CSV: header row of bare variable names; IRIs written bare, literals
///    quoted only when they contain commas/quotes/newlines (with inner
///    quotes doubled); unbound values are empty fields; CRLF line ends.
///  - TSV: header row of ?-prefixed variable names; terms in N-Triples
///    syntax (<iri>, "literal", _:blank); unbound values are empty; LF
///    line ends.
class ResultWriter {
 public:
  static void WriteCsv(const ResultTable& table, std::ostream* out);
  static void WriteTsv(const ResultTable& table, std::ostream* out);

  static std::string ToCsv(const ResultTable& table);
  static std::string ToTsv(const ResultTable& table);
};

}  // namespace lbr

#endif  // LBR_CORE_RESULT_WRITER_H_
