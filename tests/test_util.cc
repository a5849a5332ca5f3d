#include "test_util.h"

#include <algorithm>
#include <sstream>

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

std::vector<std::pair<RawRow, bool>> JoinEmissions(MultiwayJoin* join,
                                                   ExecContext* ctx) {
  RowSlab rows(join->var_names().size());
  std::vector<bool> nulled;
  join->Run(&rows, ctx, [&nulled](size_t row) {
    nulled.resize(row + 1);
    nulled[row] = true;
  });
  nulled.resize(rows.size());
  std::vector<std::pair<RawRow, bool>> out;
  for (size_t r = 0; r < rows.size(); ++r) {
    out.emplace_back(RawRow(rows.row(r), rows.row(r) + rows.width()),
                     nulled[r]);
  }
  return out;
}

Graph RandomGraph(Rng* rng, int num_entities, int num_predicates,
                  int num_triples) {
  std::vector<TermTriple> triples;
  triples.reserve(num_triples);
  for (int i = 0; i < num_triples; ++i) {
    std::string s = "e" + std::to_string(rng->Uniform(num_entities));
    std::string p = "p" + std::to_string(rng->Uniform(num_predicates));
    std::string o = "e" + std::to_string(rng->Uniform(num_entities));
    triples.push_back(T(s, p, o));
  }
  return Graph::FromTriples(triples);
}

std::string RandomWellDesignedQuery(Rng* rng, int num_predicates,
                                    int num_entities, bool allow_nested,
                                    bool allow_filter) {
  std::ostringstream q;
  q << "SELECT * WHERE { ";
  int var_counter = 0;
  auto fresh_var = [&var_counter]() {
    return "?v" + std::to_string(var_counter++);
  };
  auto pred = [&]() {
    return "<p" + std::to_string(rng->Uniform(num_predicates)) + ">";
  };
  auto entity = [&]() {
    return "<e" + std::to_string(rng->Uniform(num_entities)) + ">";
  };

  // Master BGP: 1-3 TPs sharing ?v0.
  std::vector<std::string> master_vars;
  std::string root = fresh_var();
  master_vars.push_back(root);
  int master_tps = 1 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < master_tps; ++i) {
    if (rng->Chance(0.25)) {
      q << root << " " << pred() << " " << entity() << " . ";
    } else {
      std::string obj = fresh_var();
      master_vars.push_back(obj);
      q << root << " " << pred() << " " << obj << " . ";
    }
  }

  int num_opts = 1 + static_cast<int>(rng->Uniform(3));
  for (int o = 0; o < num_opts; ++o) {
    // Hook the OPTIONAL group onto a master variable.
    const std::string& hook =
        master_vars[rng->Uniform(master_vars.size())];
    q << "OPTIONAL { ";
    std::string a = fresh_var();
    q << hook << " " << pred() << " " << a << " . ";
    if (rng->Chance(0.5)) {
      // A second TP chaining off the new variable (multi-jvar slave when a
      // cycle closes elsewhere).
      if (rng->Chance(0.4)) {
        q << a << " " << pred() << " " << entity() << " . ";
      } else {
        std::string b = fresh_var();
        q << a << " " << pred() << " " << b << " . ";
      }
    }
    if (rng->Chance(0.3)) {
      // A parallel edge master->new var via another predicate (cyclic GoJ
      // pressure when combined with chains).
      q << hook << " " << pred() << " " << a << " . ";
    }
    if (allow_nested && rng->Chance(0.35)) {
      q << "OPTIONAL { " << a << " " << pred() << " " << fresh_var()
        << " . } ";
    }
    if (allow_filter && rng->Chance(0.3)) {
      q << "FILTER (" << a << " != " << entity() << ") ";
    }
    q << "} ";
  }
  q << "}";
  return q.str();
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
