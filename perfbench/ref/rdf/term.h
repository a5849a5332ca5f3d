#ifndef LBR_RDF_TERM_H_
#define LBR_RDF_TERM_H_

#include <cstdint>
#include <string>

namespace lbr {

/// Kind of an RDF term. Blank nodes carry identifiers and behave like IRIs
/// in SPARQL evaluation (Section 2.2 of the paper: blank nodes are entities,
/// not NULLs).
enum class TermKind : uint8_t {
  kIri = 0,
  kLiteral = 1,
  kBlank = 2,
};

/// An RDF term: an IRI, a literal, or a blank node.
///
/// Terms exist at the string level only. All query processing happens over
/// dictionary-assigned integer IDs (Appendix D); Term is used at load/parse
/// time and when rendering results back to strings.
struct Term {
  TermKind kind = TermKind::kIri;
  /// IRI without angle brackets, literal lexical form without quotes, or
  /// blank-node label without the "_:" prefix.
  std::string value;

  Term() = default;
  Term(TermKind k, std::string v) : kind(k), value(std::move(v)) {}

  static Term Iri(std::string v) { return Term(TermKind::kIri, std::move(v)); }
  static Term Literal(std::string v) {
    return Term(TermKind::kLiteral, std::move(v));
  }
  static Term Blank(std::string v) {
    return Term(TermKind::kBlank, std::move(v));
  }

  bool operator==(const Term& o) const {
    return kind == o.kind && value == o.value;
  }
  bool operator!=(const Term& o) const { return !(*this == o); }
  bool operator<(const Term& o) const {
    if (kind != o.kind) return kind < o.kind;
    return value < o.value;
  }

  /// N-Triples surface syntax: <iri>, "literal", _:blank.
  std::string ToString() const;
};

/// A triple of string-level terms (parse/load representation).
struct TermTriple {
  Term s, p, o;

  bool operator==(const TermTriple& t) const {
    return s == t.s && p == t.p && o == t.o;
  }
  bool operator<(const TermTriple& t) const {
    if (!(s == t.s)) return s < t.s;
    if (!(p == t.p)) return p < t.p;
    return o < t.o;
  }
};

/// A dictionary-encoded triple. IDs follow the bitcube coordinate scheme of
/// Appendix D: subject and object IDs share the low range when the value
/// occurs on both positions (the Vso set), enabling S-O joins as bitwise
/// intersections.
struct Triple {
  uint32_t s = 0, p = 0, o = 0;

  Triple() = default;
  Triple(uint32_t s_, uint32_t p_, uint32_t o_) : s(s_), p(p_), o(o_) {}

  bool operator==(const Triple& t) const {
    return s == t.s && p == t.p && o == t.o;
  }
  bool operator<(const Triple& t) const {
    if (s != t.s) return s < t.s;
    if (p != t.p) return p < t.p;
    return o < t.o;
  }
};

}  // namespace lbr

#endif  // LBR_RDF_TERM_H_
