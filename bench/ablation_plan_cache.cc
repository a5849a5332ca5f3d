// Ablation A5: the compiled-plan cache on parameterized traffic
// (DESIGN.md §10). A dashboard-style workload replays the same query
// *shape* against every LUBM department — only the department constant
// changes — which is exactly what the shape canonicalizer abstracts.
//
// Two experiments:
//
//  1. Plan-phase micro timing: average plan time per query without the
//     cache (Parser::Parse, then the ParsedQuery entry point's rewrite +
//     GoSN + jvar-order every time; the parse time is added to
//     t_plan_sec) vs the warm cache hit path of the text entry point
//     (canonicalize + rebind only). The acceptance guard
//     checks the QueryStats planning counters — every hit must report zero
//     parses/rewrites/GoSN builds/jvar orders — and requires the hit path
//     to be >= 5x faster than a cold plan.
//
//  2. End-to-end replay: the full parameterized stream, without and with
//     the cache, as queries/second. Per-query result streams are hashed (order
//     independent) and compared across the two modes; any divergence
//     aborts the bench, so the archived numbers always describe
//     bit-identical answers.
//
// With LBR_BENCH_JSON=<path> (or as argv[1]) the timings are written as a
// google-benchmark-style JSON document for the CI regression gate.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workload/lubm_gen.h"

namespace lbr::bench {
namespace {

// The parameterized shape: professors of one department, their advisees,
// optional contact/coursework. One constant (the department IRI) varies
// per query; everything else is structure.
std::string DepartmentQuery(uint32_t university, uint32_t department) {
  return "SELECT * WHERE { "
         "?prof <http://lubm/worksFor> <" +
         LubmDepartmentIri(university, department) +
         "> . "
         "?st <http://lubm/advisor> ?prof . "
         "OPTIONAL { ?prof <http://lubm/emailAddress> ?email } "
         "OPTIONAL { ?st <http://lubm/takesCourse> ?course } }";
}

// Order-independent hash of one query's result stream: XOR of per-row
// hashes commutes, so two streams match iff the row multisets match (up
// to hash collision), regardless of enumeration order. `cached` runs the
// text entry point (through the plan cache); otherwise the text is parsed
// here and run through the ParsedQuery entry point, which plans afresh,
// and the parse time joins stats->t_plan_sec.
uint64_t RowStreamHash(Engine& engine, const std::string& sparql,
                       bool cached, QueryStats* stats) {
  uint64_t acc = 0;
  auto sink = [&acc](const RawRow& row) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a over the bindings
    for (uint32_t v : row) {
      h ^= v;
      h *= 1099511628211ull;
    }
    acc ^= h;
  };
  if (cached) {
    engine.Execute(sparql, sink, stats);
    return acc;
  }
  Stopwatch parse_watch;
  ParsedQuery query = Parser::Parse(sparql);
  const double parse_sec = parse_watch.Seconds();
  engine.Execute(query, sink, stats);
  stats->t_plan_sec += parse_sec;
  return acc;
}

struct ReplayResult {
  double plan_sec_avg = 0;    // average t_plan_sec per query
  double wall_sec = 0;        // whole-stream wall time
  uint64_t queries = 0;
  uint64_t rows = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  std::vector<uint64_t> hashes;  // per-query result-stream hash
};

ReplayResult ReplayStream(Engine& engine,
                          const std::vector<std::string>& stream,
                          bool cached) {
  ReplayResult r;
  Stopwatch wall;
  for (const std::string& sparql : stream) {
    QueryStats stats;
    r.hashes.push_back(RowStreamHash(engine, sparql, cached, &stats));
    r.plan_sec_avg += stats.t_plan_sec;
    r.rows += stats.num_results;
    r.plan_hits += stats.plan_cache_hits;
    r.plan_misses += stats.plan_cache_misses;
    // The acceptance proof: a hit must not have parsed, rewritten,
    // clustered, or ordered anything.
    if (stats.plan_cache_hits > 0 &&
        (stats.planning_parses != 0 || stats.planning_rewrites != 0 ||
         stats.planning_gosn_builds != 0 || stats.planning_jvar_orders != 0)) {
      std::cerr << "plan-cache hit ran a planning phase (parses="
                << stats.planning_parses << " rewrites="
                << stats.planning_rewrites << " gosn="
                << stats.planning_gosn_builds << " orders="
                << stats.planning_jvar_orders << "); numbers invalid\n";
      std::exit(1);
    }
  }
  r.wall_sec = wall.Seconds();
  r.queries = stream.size();
  r.plan_sec_avg /= static_cast<double>(stream.size());
  return r;
}

void Run(const char* json_path_arg) {
  double scale = ScaleFromEnv();
  int passes = RunsFromEnv();

  LubmConfig cfg;
  cfg.num_universities = static_cast<uint32_t>(10 * scale);
  if (cfg.num_universities < 2) cfg.num_universities = 2;
  Graph graph = Graph::FromTriples(GenerateLubm(cfg));
  TripleIndex index = TripleIndex::Build(graph);
  PrintDatasetHeader("LUBM-like (plan-cache ablation)", graph);

  // The parameterized stream: every department, `passes` times over. One
  // query shape, num_universities * departments distinct constants.
  std::vector<std::string> stream;
  for (int pass = 0; pass < passes; ++pass) {
    for (uint32_t u = 0; u < cfg.num_universities; ++u) {
      for (uint32_t d = 0; d < cfg.departments_per_university; ++d) {
        stream.push_back(DepartmentQuery(u, d));
      }
    }
  }
  std::cout << "stream: " << stream.size() << " queries, 1 shape, "
            << cfg.num_universities * cfg.departments_per_university
            << " distinct department constants, " << passes << " pass(es)\n";

  // Isolate the *plan* phase: both variants share warm TP caching.
  EngineOptions opts;
  opts.enable_tp_cache = true;

  // No plan cache: parse + rewrite + GoSN + jvar-order per query.
  Engine cold_engine(&index, &graph.dict(), opts);
  ReplayStream(cold_engine, stream, false);  // warm-up (TP cache, allocator)
  ReplayResult cold = ReplayStream(cold_engine, stream, false);

  // Plan cache: one compile per shape, rebind-only hits.
  Engine warm_engine(&index, &graph.dict(), opts);
  ReplayStream(warm_engine, stream, true);  // warm-up (compiles the shape)
  ReplayResult warm = ReplayStream(warm_engine, stream, true);

  if (warm.plan_hits != warm.queries) {
    std::cerr << "warm replay expected all hits, got " << warm.plan_hits
              << "/" << warm.queries << "; numbers invalid\n";
    std::exit(1);
  }
  if (cold.hashes != warm.hashes || cold.rows != warm.rows) {
    std::cerr << "cached and uncached replays disagree (rows " << cold.rows
              << " vs " << warm.rows << "); results not bit-identical\n";
    std::exit(1);
  }

  double plan_speedup = cold.plan_sec_avg / warm.plan_sec_avg;
  double qps_cold = cold.queries / cold.wall_sec;
  double qps_warm = warm.queries / warm.wall_sec;

  TablePrinter table({"variant", "plan avg", "plan hits", "plan misses",
                      "stream wall", "QPS", "rows"});
  table.AddRow({"no plan cache", TablePrinter::Seconds(cold.plan_sec_avg),
                "-", "-", TablePrinter::Seconds(cold.wall_sec),
                TablePrinter::Count(static_cast<uint64_t>(qps_cold)),
                TablePrinter::Count(cold.rows)});
  table.AddRow({"plan cache", TablePrinter::Seconds(warm.plan_sec_avg),
                TablePrinter::Count(warm.plan_hits),
                TablePrinter::Count(warm.plan_misses),
                TablePrinter::Seconds(warm.wall_sec),
                TablePrinter::Count(static_cast<uint64_t>(qps_warm)),
                TablePrinter::Count(warm.rows)});
  table.Print("Ablation A5: compiled-plan cache on parameterized traffic");
  std::cout << "plan-phase speedup: " << plan_speedup
            << "x (hit = canonicalize + rebind; planning counters all zero "
               "on hits)\n";

  if (plan_speedup < 5.0) {
    std::cerr << "plan-phase speedup " << plan_speedup
              << "x below the 5x acceptance floor\n";
    std::exit(1);
  }

  const char* env_path = std::getenv("LBR_BENCH_JSON");
  std::string json_path = json_path_arg != nullptr ? json_path_arg
                          : env_path != nullptr    ? env_path
                                                   : "";
  if (json_path.empty()) return;
  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "cannot write " << json_path << "\n";
    return;
  }
  auto ns = [](double sec) { return sec * 1e9; };
  out << "{\n  " << JsonContext("ablation_plan_cache", "LUBM-like")
      << ",\n  \"benchmarks\": [\n";
  out << "    {\"name\": \"PlanCache/plan_phase_cold\", \"run_type\": "
      << "\"iteration\", \"real_time\": " << ns(cold.plan_sec_avg)
      << ", \"cpu_time\": " << ns(cold.plan_sec_avg)
      << ", \"time_unit\": \"ns\"},\n";
  out << "    {\"name\": \"PlanCache/plan_phase_hit\", \"run_type\": "
      << "\"iteration\", \"real_time\": " << ns(warm.plan_sec_avg)
      << ", \"cpu_time\": " << ns(warm.plan_sec_avg)
      << ", \"time_unit\": \"ns\"},\n";
  out << "    {\"name\": \"PlanCache/query_uncached\", \"run_type\": "
      << "\"iteration\", \"real_time\": " << ns(cold.wall_sec / cold.queries)
      << ", \"cpu_time\": " << ns(cold.wall_sec / cold.queries)
      << ", \"time_unit\": \"ns\", \"qps\": " << qps_cold << "},\n";
  out << "    {\"name\": \"PlanCache/query_cached\", \"run_type\": "
      << "\"iteration\", \"real_time\": " << ns(warm.wall_sec / warm.queries)
      << ", \"cpu_time\": " << ns(warm.wall_sec / warm.queries)
      << ", \"time_unit\": \"ns\", \"qps\": " << qps_warm << "},\n";
  out << "    {\"name\": \"PlanCache/plan_phase_speedup\", \"run_type\": "
      << "\"aggregate\", \"real_time\": " << plan_speedup
      << ", \"cpu_time\": " << plan_speedup << ", \"time_unit\": \"x\"}\n";
  out << "  ]\n}\n";
  std::cout << "plan-cache JSON written to " << json_path << " (plan speedup "
            << plan_speedup << "x)\n";
}

}  // namespace
}  // namespace lbr::bench

int main(int argc, char** argv) {
  lbr::bench::Run(argc > 1 ? argv[1] : nullptr);
  return 0;
}
