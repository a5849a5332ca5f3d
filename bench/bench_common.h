#ifndef LBR_BENCH_BENCH_COMMON_H_
#define LBR_BENCH_BENCH_COMMON_H_

// Shared harness for the table-reproduction benches: builds a workload,
// runs every query on the LBR engine, the pairwise (column-store stand-in)
// baseline, and the no-prune LBR ablation, and prints a Table 6.x-style
// row per query plus the Section 6.2 geometric means. A query on which the
// three disagree about the number of rows ends the bench with exit code 1.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/pairwise_engine.h"
#include "bitmat/triple_index.h"
#include "core/engine.h"
#include "rdf/graph.h"
#include "sparql/parser.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/query_sets.h"
#include "workload/table_printer.h"

namespace lbr::bench {

/// The JSON "context" object every bench writer emits: bench name,
/// workload, and the host's parallelism (hardware_threads from the C++
/// runtime, nproc_online from the OS). Timing baselines are hardware-bound;
/// recording the thread counts in every file lets check_regression.py warn
/// when a baseline and a current run come from different machines.
inline std::string JsonContext(const std::string& bench,
                               const std::string& workload) {
  long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::ostringstream os;
  os << "\"context\": {\"bench\": \"" << bench << "\", \"workload\": \""
     << workload << "\", \"hardware_threads\": "
     << ThreadPool::HardwareThreads()
     << ", \"nproc_online\": " << (nproc > 0 ? nproc : 1) << "}";
  return os.str();
}

/// Scale factor from the environment (LBR_SCALE, default 1.0). The bench
/// defaults are laptop-seconds sized; raise LBR_SCALE to stress.
inline double ScaleFromEnv() {
  const char* s = std::getenv("LBR_SCALE");
  if (s == nullptr) return 1.0;
  double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

/// Repetitions per query (paper: 5 timed runs after a warm-up; default 3
/// here to keep the full bench suite in CI-friendly time).
inline int RunsFromEnv() {
  const char* s = std::getenv("LBR_RUNS");
  if (s == nullptr) return 3;
  int v = std::atoi(s);
  return v > 0 ? v : 3;
}

struct QueryResultRow {
  std::string id;
  QueryStats lbr;            // averaged timings, last-run counters
  double t_pairwise = 0;     // "T_virt" column stand-in
  double t_noprune = 0;      // "T_monet" column stand-in
};

/// Times `fn` with one warm-up plus `runs` timed repetitions; returns the
/// averaged seconds.
template <typename Fn>
double TimeAvg(int runs, Fn&& fn) {
  fn();  // warm-up (cache warming, as in the paper's protocol)
  double total = 0;
  for (int i = 0; i < runs; ++i) {
    Stopwatch w;
    fn();
    total += w.Seconds();
  }
  return total / runs;
}

/// Seconds per call: repeats `fn` (after one warm-up call) with a
/// geometrically growing iteration count until one timed sample lasts at
/// least `min_sample_sec` — sub-millisecond queries would otherwise put
/// scheduler noise straight into the archived ratios and the regression
/// gate.
template <typename Fn>
double TimeMinSample(Fn&& fn, double min_sample_sec) {
  fn();  // warm-up
  uint64_t iters = 1;
  for (;;) {
    Stopwatch w;
    for (uint64_t i = 0; i < iters; ++i) fn();
    double s = w.Seconds();
    if (s >= min_sample_sec || iters >= (1u << 20)) {
      return s / static_cast<double>(iters);
    }
    iters *= 4;
  }
}

/// Median of a small sample set (interleaved repetitions of one timing).
inline double Median3(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Runs one query on all three engines; exits 1 unless all three return
/// the same number of rows.
inline QueryResultRow RunQuery(const Graph& graph, const TripleIndex& index,
                               const BenchQuery& query, int runs) {
  QueryResultRow row;
  row.id = query.id;
  ParsedQuery parsed = Parser::Parse(query.sparql);

  // LBR: average end-to-end time; stats taken from the last run.
  {
    Engine engine(&index, &graph.dict());
    double init = 0, prune = 0;
    row.lbr.t_total_sec = TimeAvg(runs, [&] {
      QueryStats stats;
      engine.Execute(parsed, [](const RawRow&) {}, &stats);
      init = stats.t_init_sec;
      prune = stats.t_prune_sec;
      row.lbr = stats;
    });
    row.lbr.t_init_sec = init;
    row.lbr.t_prune_sec = prune;
  }

  // Pairwise hash-join baseline (the Virtuoso/MonetDB stand-in).
  uint64_t pairwise_rows = 0;
  {
    PairwiseEngine engine(const_cast<TripleIndex*>(&index), &graph.dict());
    row.t_pairwise = TimeAvg(runs, [&] {
      QueryStats stats;
      engine.ExecuteToTable(parsed, &stats);
      pairwise_rows = stats.num_results;
    });
  }

  // LBR with pruning disabled: quantifies what Algorithms 3.1/3.2 buy.
  uint64_t noprune_rows = 0;
  {
    EngineOptions options;
    options.enable_prune = false;
    Engine engine(&index, &graph.dict(), options);
    row.t_noprune = TimeAvg(runs, [&] {
      noprune_rows = engine.Execute(parsed, [](const RawRow&) {});
    });
  }

  if (pairwise_rows != row.lbr.num_results ||
      noprune_rows != row.lbr.num_results) {
    std::cerr << query.id << ": engines disagree on the row count (LBR "
              << row.lbr.num_results << ", no-prune LBR " << noprune_rows
              << ", pairwise " << pairwise_rows << ")\n";
    std::exit(1);
  }
  return row;
}

/// Prints a full Table 6.x for a dataset.
inline void PrintQueryTable(const std::string& title,
                            const std::vector<QueryResultRow>& rows) {
  TablePrinter table({"", "Tinit(LBR)", "Tprune(LBR)", "Ttotal(LBR)",
                      "Tpairwise", "Tnoprune", "#initial triples",
                      "#triples aft pruning", "#total results",
                      "#results with nulls", "best-match reqd?"});
  for (const QueryResultRow& r : rows) {
    table.AddRow({r.id, TablePrinter::Seconds(r.lbr.t_init_sec),
                  TablePrinter::Seconds(r.lbr.t_prune_sec),
                  TablePrinter::Seconds(r.lbr.t_total_sec),
                  TablePrinter::Seconds(r.t_pairwise),
                  TablePrinter::Seconds(r.t_noprune),
                  TablePrinter::Count(r.lbr.initial_triples),
                  TablePrinter::Count(r.lbr.triples_after_prune),
                  TablePrinter::Count(r.lbr.num_results),
                  TablePrinter::Count(r.lbr.num_results_with_nulls),
                  TablePrinter::YesNo(r.lbr.best_match_used)});
  }
  table.Print(title);

  // Section 6.2 reports per-system geometric means across the query set.
  auto geo = [&rows](auto&& get) {
    double log_sum = 0;
    for (const QueryResultRow& r : rows) {
      log_sum += std::log(std::max(get(r), 1e-7));
    }
    return std::exp(log_sum / static_cast<double>(rows.size()));
  };
  std::cout << "geometric means (sec): LBR="
            << TablePrinter::Seconds(
                   geo([](const QueryResultRow& r) { return r.lbr.t_total_sec; }))
            << "  pairwise="
            << TablePrinter::Seconds(
                   geo([](const QueryResultRow& r) { return r.t_pairwise; }))
            << "  noprune-LBR="
            << TablePrinter::Seconds(
                   geo([](const QueryResultRow& r) { return r.t_noprune; }))
            << "\n";
}

inline void PrintDatasetHeader(const std::string& name, const Graph& graph) {
  const Dictionary& d = graph.dict();
  std::cout << "\n=== " << name << ": "
            << TablePrinter::Count(graph.num_triples())
            << " triples, |Vs|=" << TablePrinter::Count(d.num_subjects())
            << ", |Vp|=" << TablePrinter::Count(d.num_predicates())
            << ", |Vo|=" << TablePrinter::Count(d.num_objects())
            << ", |Vso|=" << TablePrinter::Count(d.num_common()) << "\n";
}

}  // namespace lbr::bench

#endif  // LBR_BENCH_BENCH_COMMON_H_
