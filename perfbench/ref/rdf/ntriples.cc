#include "rdf/ntriples.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace lbr {

namespace {

void Fail(size_t line_no, const std::string& msg) {
  throw std::invalid_argument("N-Triples line " + std::to_string(line_no) +
                              ": " + msg);
}

void SkipWs(std::string_view line, size_t* i) {
  while (*i < line.size() && (line[*i] == ' ' || line[*i] == '\t')) ++(*i);
}

// Parses one term starting at *i; advances *i past it.
Term ParseTerm(std::string_view line, size_t* i, size_t line_no,
               bool allow_literal) {
  SkipWs(line, i);
  if (*i >= line.size()) Fail(line_no, "unexpected end of line");
  char c = line[*i];
  if (c == '<') {
    size_t end = line.find('>', *i + 1);
    if (end == std::string_view::npos) Fail(line_no, "unterminated IRI");
    Term t = Term::Iri(std::string(line.substr(*i + 1, end - *i - 1)));
    *i = end + 1;
    return t;
  }
  if (c == '_') {
    if (*i + 1 >= line.size() || line[*i + 1] != ':') {
      Fail(line_no, "malformed blank node");
    }
    size_t start = *i + 2;
    size_t end = start;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
           line[end] != '.') {
      ++end;
    }
    Term t = Term::Blank(std::string(line.substr(start, end - start)));
    *i = end;
    return t;
  }
  if (c == '"') {
    if (!allow_literal) Fail(line_no, "literal not allowed at this position");
    std::string value;
    size_t j = *i + 1;
    while (j < line.size() && line[j] != '"') {
      if (line[j] == '\\' && j + 1 < line.size()) {
        char esc = line[j + 1];
        switch (esc) {
          case 'n': value.push_back('\n'); break;
          case 't': value.push_back('\t'); break;
          case 'r': value.push_back('\r'); break;
          case '"': value.push_back('"'); break;
          case '\\': value.push_back('\\'); break;
          default: value.push_back(esc); break;
        }
        j += 2;
      } else {
        value.push_back(line[j]);
        ++j;
      }
    }
    if (j >= line.size()) Fail(line_no, "unterminated literal");
    ++j;  // closing quote
    // Fold language tag / datatype into the lexical form (the engine joins
    // on full term identity, so keeping them distinct terms is enough).
    if (j < line.size() && line[j] == '@') {
      size_t end = j;
      while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
      value += std::string(line.substr(j, end - j));
      j = end;
    } else if (j + 1 < line.size() && line[j] == '^' && line[j + 1] == '^') {
      size_t end = line.find('>', j);
      if (end == std::string_view::npos) Fail(line_no, "unterminated datatype");
      value += std::string(line.substr(j, end - j + 1));
      j = end + 1;
    }
    *i = j;
    return Term::Literal(std::move(value));
  }
  Fail(line_no, std::string("unexpected character '") + c + "'");
  return Term();  // unreachable
}

std::string EscapeLiteral(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

bool NTriples::ParseLine(std::string_view line, size_t line_no,
                         TermTriple* out) {
  size_t i = 0;
  SkipWs(line, &i);
  if (i >= line.size() || line[i] == '#' || line[i] == '\r') return false;
  out->s = ParseTerm(line, &i, line_no, /*allow_literal=*/false);
  out->p = ParseTerm(line, &i, line_no, /*allow_literal=*/false);
  if (out->p.kind != TermKind::kIri) Fail(line_no, "predicate must be an IRI");
  out->o = ParseTerm(line, &i, line_no, /*allow_literal=*/true);
  SkipWs(line, &i);
  if (i >= line.size() || line[i] != '.') Fail(line_no, "missing final '.'");
  return true;
}

std::vector<TermTriple> NTriples::ParseString(std::string_view text) {
  std::vector<TermTriple> out;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line = (nl == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, nl - pos);
    ++line_no;
    TermTriple t;
    if (ParseLine(line, line_no, &t)) out.push_back(std::move(t));
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return out;
}

std::vector<TermTriple> NTriples::ParseStream(std::istream* in) {
  std::vector<TermTriple> out;
  std::string line;
  size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    TermTriple t;
    if (ParseLine(line, line_no, &t)) out.push_back(std::move(t));
  }
  return out;
}

std::string NTriples::ToLine(const TermTriple& t) {
  std::ostringstream os;
  auto render = [&os](const Term& term) {
    switch (term.kind) {
      case TermKind::kIri:
        os << '<' << term.value << '>';
        break;
      case TermKind::kLiteral:
        os << '"' << EscapeLiteral(term.value) << '"';
        break;
      case TermKind::kBlank:
        os << "_:" << term.value;
        break;
    }
  };
  render(t.s);
  os << ' ';
  render(t.p);
  os << ' ';
  render(t.o);
  os << " .";
  return os.str();
}

void NTriples::WriteStream(const std::vector<TermTriple>& triples,
                           std::ostream* out) {
  for (const TermTriple& t : triples) {
    *out << ToLine(t) << '\n';
  }
}

}  // namespace lbr
