#include "test_util.h"

#include <algorithm>

#include <gtest/gtest.h>
#include <unistd.h>

namespace lbr::testing {

namespace {

Term ParseCompact(const std::string& text) {
  if (!text.empty() && text[0] == '"') {
    return Term::Literal(
        text.substr(1, text.size() - (text.back() == '"' ? 2 : 1)));
  }
  if (text.rfind("_:", 0) == 0) return Term::Blank(text.substr(2));
  return Term::Iri(text);
}

}  // namespace

TermTriple T(const std::string& s, const std::string& p,
             const std::string& o) {
  return TermTriple{ParseCompact(s), ParseCompact(p), ParseCompact(o)};
}

Graph MakeGraph(const std::vector<std::vector<std::string>>& triples) {
  std::vector<TermTriple> tts;
  tts.reserve(triples.size());
  for (const auto& t : triples) tts.push_back(T(t[0], t[1], t[2]));
  return Graph::FromTriples(tts);
}

Graph SitcomGraph() {
  return MakeGraph({
      {"Julia", "actedIn", "Seinfeld"},
      {"Julia", "actedIn", "Veep"},
      {"Julia", "actedIn", "NewAdvOldChristine"},
      {"Julia", "actedIn", "CurbYourEnthu"},
      {"Larry", "actedIn", "CurbYourEnthu"},
      {"Jerry", "hasFriend", "Julia"},
      {"Jerry", "hasFriend", "Larry"},
      {"Seinfeld", "location", "NewYorkCity"},
      {"Veep", "location", "D.C."},
      {"CurbYourEnthu", "location", "LosAngeles"},
      {"NewAdvOldChristine", "location", "Jersey"},
      // Background actors in NYC sitcoms (not friends of Jerry), giving tp2
      // and tp3 their low selectivity as in the paper's narrative.
      {"Jason", "actedIn", "Seinfeld"},
      {"Michael", "actedIn", "Seinfeld"},
      {"Wayne", "actedIn", "NewAdvOldChristine"},
      {"30Rock", "location", "NewYorkCity"},
      {"Tina", "actedIn", "30Rock"},
      {"Alec", "actedIn", "30Rock"},
  });
}

std::string SitcomQuery() {
  return "SELECT ?friend ?sitcom WHERE {"
         "  <Jerry> <hasFriend> ?friend ."
         "  OPTIONAL {"
         "    ?friend <actedIn> ?sitcom ."
         "    ?sitcom <location> <NewYorkCity> . } }";
}

std::vector<std::string> Canonicalize(const ResultTable& table) {
  return CanonicalizeProjected(table, table.var_names);
}

std::vector<std::string> CanonicalizeProjected(
    const ResultTable& table, const std::vector<std::string>& var_order) {
  std::vector<int> cols(var_order.size(), -1);
  for (size_t i = 0; i < var_order.size(); ++i) {
    for (size_t j = 0; j < table.var_names.size(); ++j) {
      if (table.var_names[j] == var_order[i]) {
        cols[i] = static_cast<int>(j);
        break;
      }
    }
  }
  std::vector<std::string> out;
  out.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::string line;
    for (size_t i = 0; i < var_order.size(); ++i) {
      line += var_order[i];
      line += '=';
      if (cols[i] >= 0 && row[cols[i]].has_value()) {
        line += row[cols[i]]->ToString();
      } else {
        line += "NULL";
      }
      line += '|';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique;
  if (info != nullptr) {
    unique = std::string(info->test_suite_name()) + "." + info->name() + ".";
  }
  // Parameterized test names carry '/', which would name a subdirectory.
  std::replace(unique.begin(), unique.end(), '/', '_');
  return ::testing::TempDir() + "/" + unique +
         std::to_string(static_cast<long>(::getpid())) + "." + name;
}

}  // namespace lbr::testing
