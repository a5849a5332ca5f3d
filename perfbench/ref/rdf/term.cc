#include "rdf/term.h"

namespace lbr {

std::string Term::ToString() const {
  switch (kind) {
    case TermKind::kIri:
      return "<" + value + ">";
    case TermKind::kLiteral:
      return "\"" + value + "\"";
    case TermKind::kBlank:
      return "_:" + value;
  }
  return value;
}

}  // namespace lbr
