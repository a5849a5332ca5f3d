// University-analytics scenario: runs the LUBM-like workload end to end —
// generate data, build + snapshot the database, reopen the snapshot, and
// execute a mix of OPTIONAL queries while reporting the paper's evaluation
// metrics (T_init / T_prune / T_total, triples before/after pruning, NULL
// rows).

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "core/database.h"
#include "workload/lubm_gen.h"
#include "workload/query_sets.h"
#include "workload/table_printer.h"

int main() {
  using namespace lbr;

  // 1. Generate a campus network (~10 universities) and build the database.
  LubmConfig cfg;
  cfg.num_universities = 10;
  Database built = Database::Build(GenerateLubm(cfg));
  std::cout << "generated " << TablePrinter::Count(built.num_triples())
            << " triples over "
            << TablePrinter::Count(built.dict().num_subjects())
            << " subjects / " << built.dict().num_predicates()
            << " predicates\n";

  // 2. Save a snapshot and reopen it — the deployment flow a real
  //    application would use: the reopened database maps the file and
  //    loads each predicate's BitMats on first touch.
  const std::string path =
      (std::filesystem::temp_directory_path() / "lbr_lubm_example.lbr")
          .string();
  built.SaveSnapshot(path);
  Database db = Database::OpenSnapshot(path);
  TripleIndex::SizeReport size = db.index().ComputeSizeReport();
  std::cout << "index: " << TablePrinter::Count(size.hybrid_bytes)
            << " B hybrid-compressed ("
            << TablePrinter::Count(size.rle_only_bytes)
            << " B if pure RLE)\n";

  // 3. Run the Appendix E.1 query set.
  Engine& engine = db.engine();
  TablePrinter table({"query", "Tinit", "Tprune", "Ttotal", "#initial",
                      "#aft prune", "#results", "#null rows", "best-match"});
  for (const BenchQuery& q : LubmQueries()) {
    QueryStats stats;
    try {
      engine.ExecuteToTable(q.sparql, &stats);
    } catch (const std::exception& e) {
      std::cout << q.id << ": " << e.what() << "\n";
      continue;
    }
    table.AddRow({q.id, TablePrinter::Seconds(stats.t_init_sec),
                  TablePrinter::Seconds(stats.t_prune_sec),
                  TablePrinter::Seconds(stats.t_total_sec),
                  TablePrinter::Count(stats.initial_triples),
                  TablePrinter::Count(stats.triples_after_prune),
                  TablePrinter::Count(stats.num_results),
                  TablePrinter::Count(stats.num_results_with_nulls),
                  TablePrinter::YesNo(stats.best_match_used)});
  }
  table.Print("LUBM-like analytics (10 universities)");

  // 4. One ad-hoc analytical question: professors and, when listed, their
  //    research interests — with the share of NULLs (unlisted interests).
  QueryStats stats;
  ResultTable profs = engine.ExecuteToTable(
      "PREFIX ub: <http://lubm/> SELECT * WHERE {"
      "  ?prof a ub:FullProfessor ."
      "  ?prof ub:worksFor ?dept ."
      "  OPTIONAL { ?prof ub:researchInterest ?interest . } }",
      &stats);
  std::cout << "\nfull professors: " << profs.rows.size() << ", without a "
            << "listed research interest: " << stats.num_results_with_nulls
            << "\n";
  std::remove(path.c_str());
  return 0;
}
