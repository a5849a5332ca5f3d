// Ablation A6: the mmap-backed snapshot tier (DESIGN.md §11). Two cold-start
// paths to a queryable LUBM database:
//
//   rebuild   — parse the N-Triples source, build dictionary + index, run
//               the E.1 query set once (what every restart paid before the
//               snapshot format existed);
//   snapshot  — map a SaveSnapshot file, decode metadata only, run the same
//               query set once (each (predicate, side) slice a query
//               reads materializes from the mapped extents on first touch).
//
// Per-query result streams are hashed order-independently and compared
// across the two paths every pass; any divergence aborts the bench. The
// acceptance guard requires a >= 5x geomean speedup for open + first
// query-set sweep.
//
// A third, budgeted experiment reopens the snapshot with a memory budget a
// quarter of the measured working set and replays the query set: it must
// still hash-match the rebuild path and must report > 0 spills — proving
// the cold-predicate spill tier trades latency, never correctness.
//
// With LBR_BENCH_JSON=<path> (or as argv[1]) the timings are written as a
// google-benchmark-style JSON document for the CI regression gate.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/database.h"
#include "rdf/ntriples.h"
#include "workload/lubm_gen.h"

namespace lbr::bench {
namespace {

// Order-independent hash of one query's result stream (XOR of per-row FNV
// hashes commutes, so streams match iff the row multisets match).
uint64_t RowStreamHash(Engine& engine, const std::string& sparql,
                       QueryStats* stats) {
  uint64_t acc = 0;
  engine.Execute(
      sparql,
      [&acc](const RawRow& row) {
        uint64_t h = 1469598103934665603ull;
        for (uint32_t v : row) {
          h ^= v;
          h *= 1099511628211ull;
        }
        acc ^= h;
      },
      stats);
  return acc;
}

struct ColdRun {
  double open_sec = 0;         // parse+build, or map+decode-metadata
  double first_query_sec = 0;  // Q1, including its lazy materializations
  double sweep_sec = 0;        // the rest of the query set
  uint64_t rows = 0;
  uint64_t spills = 0;
  uint64_t materializations = 0;
  std::vector<uint64_t> hashes;
  /// The acceptance metric: time from cold start to the first answer.
  double time_to_first() const { return open_sec + first_query_sec; }
  double total() const { return open_sec + first_query_sec + sweep_sec; }
};

ColdRun SweepQueries(Database& db, const std::vector<BenchQuery>& queries) {
  ColdRun r;
  Stopwatch w;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats stats;
    r.hashes.push_back(RowStreamHash(db.engine(), queries[i].sparql, &stats));
    r.rows += stats.num_results;
    r.spills += stats.snapshot_spills;
    r.materializations += stats.snapshot_materializations;
    if (i == 0) {
      r.first_query_sec = w.Seconds();
    }
  }
  r.sweep_sec = w.Seconds() - r.first_query_sec;
  return r;
}

ColdRun ColdRebuild(const std::string& nt_path,
                    const std::vector<BenchQuery>& queries) {
  Stopwatch w;
  Database db = Database::BuildFromNTriples(nt_path);
  double open_sec = w.Seconds();
  ColdRun r = SweepQueries(db, queries);
  r.open_sec = open_sec;
  return r;
}

ColdRun ColdSnapshot(const std::string& snap_path,
                     const std::vector<BenchQuery>& queries,
                     SnapshotOptions snap = {}) {
  Stopwatch w;
  Database db = Database::OpenSnapshot(snap_path, {}, snap);
  double open_sec = w.Seconds();
  ColdRun r = SweepQueries(db, queries);
  r.open_sec = open_sec;
  return r;
}

void RequireSameResults(const ColdRun& a, const ColdRun& b,
                        const char* label) {
  if (a.hashes != b.hashes || a.rows != b.rows) {
    std::cerr << label << ": result streams diverge from the rebuild path ("
              << a.rows << " vs " << b.rows
              << " rows); numbers invalid\n";
    std::exit(1);
  }
}

void Run(const char* json_path_arg) {
  double scale = ScaleFromEnv();
  int passes = RunsFromEnv();

  LubmConfig cfg;
  cfg.num_universities = static_cast<uint32_t>(10 * scale);
  if (cfg.num_universities < 2) cfg.num_universities = 2;

  const std::string tag = std::to_string(static_cast<long>(::getpid()));
  const std::string nt_path = "/tmp/lbr_snap_bench_" + tag + ".nt";
  const std::string snap_path = "/tmp/lbr_snap_bench_" + tag + ".snap";

  // Source data on disk, via the streaming generator core: the triples go
  // straight from the generator into the N-Triples writer, never held as
  // one big vector.
  uint64_t num_triples = 0;
  {
    std::ofstream out(nt_path);
    GenerateLubm(cfg, [&out, &num_triples](const TermTriple& t) {
      out << NTriples::ToLine(t) << '\n';
      ++num_triples;
    });
  }
  {
    Database db = Database::BuildFromNTriples(nt_path);
    db.SaveSnapshot(snap_path);
  }
  std::ifstream snap_in(snap_path, std::ios::binary | std::ios::ate);
  const uint64_t snap_bytes = static_cast<uint64_t>(snap_in.tellg());
  snap_in.close();
  std::cout << "\n=== LUBM-like (snapshot ablation): " << num_triples
            << " triples, snapshot file " << snap_bytes << " bytes\n";

  const std::vector<BenchQuery> queries = LubmQueries();

  // Cold-start passes: geomean of per-pass time-to-first-answer speedups
  // (one pass is one simulated process restart; the full-set sweep that
  // follows is the untimed bit-identity check). Lazy loading is exactly
  // what makes the first query cheap: it pays only for the predicates it
  // touches, while the rebuild path pays for the whole dataset up front.
  double log_speedup_sum = 0;
  ColdRun rebuild, snap;
  for (int i = 0; i < passes; ++i) {
    rebuild = ColdRebuild(nt_path, queries);
    snap = ColdSnapshot(snap_path, queries);
    RequireSameResults(rebuild, snap, "snapshot");
    log_speedup_sum += std::log(rebuild.time_to_first() / snap.time_to_first());
  }
  const double speedup = std::exp(log_speedup_sum / passes);

  // Budgeted pass: working set / 4, measured not guessed, so the budget is
  // genuinely smaller than the full index on any scale.
  uint64_t full_bytes = 0;
  {
    Database db = Database::OpenSnapshot(snap_path);
    SweepQueries(db, queries);
    full_bytes = db.index().snapshot_resident_bytes();
  }
  SnapshotOptions budget_opts;
  budget_opts.memory_budget_bytes = full_bytes / 4 + 1;
  ColdRun budgeted = ColdSnapshot(snap_path, queries, budget_opts);
  RequireSameResults(rebuild, budgeted, "budgeted snapshot");
  if (budgeted.spills == 0) {
    std::cerr << "budgeted run (budget " << budget_opts.memory_budget_bytes
              << " of " << full_bytes
              << " working-set bytes) reported zero spills; the spill tier "
                 "was not exercised\n";
    std::exit(1);
  }

  std::remove(nt_path.c_str());
  std::remove(snap_path.c_str());

  TablePrinter table({"variant", "open", "first query", "to 1st answer",
                      "full sweep", "rows", "materializations", "spills"});
  table.AddRow({"ntriples rebuild", TablePrinter::Seconds(rebuild.open_sec),
                TablePrinter::Seconds(rebuild.first_query_sec),
                TablePrinter::Seconds(rebuild.time_to_first()),
                TablePrinter::Seconds(rebuild.total()),
                TablePrinter::Count(rebuild.rows), "-", "-"});
  table.AddRow({"snapshot", TablePrinter::Seconds(snap.open_sec),
                TablePrinter::Seconds(snap.first_query_sec),
                TablePrinter::Seconds(snap.time_to_first()),
                TablePrinter::Seconds(snap.total()),
                TablePrinter::Count(snap.rows),
                TablePrinter::Count(snap.materializations), "0"});
  table.AddRow({"snapshot (budget/4)",
                TablePrinter::Seconds(budgeted.open_sec),
                TablePrinter::Seconds(budgeted.first_query_sec),
                TablePrinter::Seconds(budgeted.time_to_first()),
                TablePrinter::Seconds(budgeted.total()),
                TablePrinter::Count(budgeted.rows),
                TablePrinter::Count(budgeted.materializations),
                TablePrinter::Count(budgeted.spills)});
  table.Print("Ablation A6: cold start to first answer, snapshot vs rebuild");
  std::cout << "time-to-first-answer geomean speedup: " << speedup
            << "x over " << passes << " pass(es); budgeted run stayed "
            << "bit-identical with " << budgeted.spills << " spill(s)\n";

  if (speedup < 5.0) {
    std::cerr << "time-to-first-answer speedup " << speedup
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
  out << "{\n  " << JsonContext("ablation_snapshot", "LUBM-like")
      << ",\n  \"benchmarks\": [\n";
  out << "    {\"name\": \"Snapshot/first_answer_rebuild\", \"run_type\": "
      << "\"iteration\", \"real_time\": " << ns(rebuild.time_to_first())
      << ", \"cpu_time\": " << ns(rebuild.time_to_first())
      << ", \"time_unit\": \"ns\"},\n";
  out << "    {\"name\": \"Snapshot/first_answer_snapshot\", \"run_type\": "
      << "\"iteration\", \"real_time\": " << ns(snap.time_to_first())
      << ", \"cpu_time\": " << ns(snap.time_to_first())
      << ", \"time_unit\": \"ns\"},\n";
  // Aggregates: archived, never gated (speedup is a ratio of the two
  // iteration entries; the budgeted run's wall time depends on spill
  // scheduling noise).
  out << "    {\"name\": \"Snapshot/cold_speedup\", \"run_type\": "
      << "\"aggregate\", \"real_time\": " << speedup
      << ", \"cpu_time\": " << speedup << ", \"time_unit\": \"x\"},\n";
  out << "    {\"name\": \"Snapshot/budgeted_total\", \"run_type\": "
      << "\"aggregate\", \"real_time\": " << ns(budgeted.total())
      << ", \"cpu_time\": " << ns(budgeted.total())
      << ", \"time_unit\": \"ns\", \"spills\": " << budgeted.spills << "}\n";
  out << "  ]\n}\n";
  std::cout << "snapshot JSON written to " << json_path << " (speedup "
            << speedup << "x)\n";
}

}  // namespace
}  // namespace lbr::bench

int main(int argc, char** argv) {
  lbr::bench::Run(argc > 1 ? argv[1] : nullptr);
  return 0;
}
