#include "core/result_writer.h"

#include <ostream>
#include <sstream>

namespace lbr {

namespace {

// CSV field escaping: quote only when necessary; double inner quotes.
void WriteCsvField(const std::string& value, std::ostream* out) {
  bool needs_quotes = value.find_first_of(",\"\r\n") != std::string::npos;
  if (!needs_quotes) {
    *out << value;
    return;
  }
  *out << '"';
  for (char c : value) {
    if (c == '"') *out << '"';
    *out << c;
  }
  *out << '"';
}

// CSV term form: bare lexical value for every kind (the CSV format is
// lossy by design); blank nodes keep their _: prefix.
std::string CsvTermForm(const Term& t) {
  switch (t.kind) {
    case TermKind::kIri:
    case TermKind::kLiteral:
      return t.value;
    case TermKind::kBlank:
      return "_:" + t.value;
  }
  return t.value;
}

// TSV term form: N-Triples syntax with tab/newline escapes inside
// literals.
std::string TsvTermForm(const Term& t) {
  if (t.kind != TermKind::kLiteral) return t.ToString();
  std::string out = "\"";
  for (char c : t.value) {
    switch (c) {
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default: out.push_back(c);
    }
  }
  out += '"';
  return out;
}

}  // namespace

void ResultWriter::WriteCsv(const ResultTable& table, std::ostream* out) {
  for (size_t i = 0; i < table.var_names.size(); ++i) {
    if (i > 0) *out << ',';
    WriteCsvField(table.var_names[i], out);
  }
  *out << "\r\n";
  for (const auto& row : table.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) *out << ',';
      if (row[i].has_value()) WriteCsvField(CsvTermForm(*row[i]), out);
    }
    *out << "\r\n";
  }
}

void ResultWriter::WriteTsv(const ResultTable& table, std::ostream* out) {
  for (size_t i = 0; i < table.var_names.size(); ++i) {
    if (i > 0) *out << '\t';
    *out << '?' << table.var_names[i];
  }
  *out << '\n';
  for (const auto& row : table.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) *out << '\t';
      if (row[i].has_value()) *out << TsvTermForm(*row[i]);
    }
    *out << '\n';
  }
}

std::string ResultWriter::ToCsv(const ResultTable& table) {
  std::ostringstream os;
  WriteCsv(table, &os);
  return os.str();
}

std::string ResultWriter::ToTsv(const ResultTable& table) {
  std::ostringstream os;
  WriteTsv(table, &os);
  return os.str();
}

}  // namespace lbr
