// Ablation A6: query lifecycle control (DESIGN.md §9). Two experiments:
//
//  1. Check overhead: every LUBM query timed with no QueryControl attached
//     (the null fast path — one pointer test per check) and with an
//     attached control whose deadline never fires. The attached-control
//     times are the gated iteration entries; the per-query and geomean
//     overhead ratios are emitted as unit-"x" aggregates (derived numbers,
//     skipped by check_regression.py).
//
//  2. Abort latency: a heavy co-enrollment join (quadratic in enrollment,
//     ~100ms+) is (a) cancelled from another thread mid-run and (b) given a
//     deadline that lands mid-run; reported is the gap between the abort
//     request (or the deadline instant) and the moment Execute actually
//     unwinds. This is the bound the cooperative check placement buys —
//     emitted as run_type "aggregate" ms entries so the regression gate,
//     which only compares iterations, records but does not gate the
//     latencies (they are scheduler-noisy).
//
// With LBR_BENCH_JSON=<path> (or as argv[1]) the results are written as a
// google-benchmark-style JSON document for the CI perf trajectory.

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "util/query_control.h"
#include "workload/lubm_gen.h"

namespace lbr::bench {
namespace {

// Quadratic co-enrollment join: every pair of students sharing a course,
// plus the second student's advisor. Result size grows with the square of
// per-course enrollment, which makes the run long enough (at 64+
// universities) for a mid-flight abort to land in every engine phase.
constexpr char kHeavyQuery[] =
    "PREFIX ub: <http://lubm/>\n"
    "SELECT * WHERE { ?a ub:takesCourse ?c . ?b ub:takesCourse ?c . "
    "?b ub:advisor ?p . }";

struct OverheadRow {
  std::string id;
  double nocontrol_sec = 0;
  double control_sec = 0;
  double ratio() const { return control_sec / nocontrol_sec; }
};

struct LatencyStats {
  double avg_ms = 0;
  double max_ms = 0;
};

LatencyStats Summarize(const std::vector<double>& latencies_sec) {
  LatencyStats s;
  for (double v : latencies_sec) {
    s.avg_ms += v * 1e3;
    s.max_ms = std::max(s.max_ms, v * 1e3);
  }
  s.avg_ms /= static_cast<double>(latencies_sec.size());
  return s;
}

void WriteJson(const std::vector<OverheadRow>& rows, double geomean,
               const LatencyStats& cancel_lat, const LatencyStats& deadline_lat,
               const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  out << "{\n  " << JsonContext("ablation_cancel", "LUBM-like")
      << ",\n  \"benchmarks\": [\n";
  bool first = true;
  auto emit = [&](const std::string& name, const std::string& run_type,
                  double value, const std::string& unit) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"name\": \"" << name << "\", \"run_type\": \"" << run_type
        << "\", \"real_time\": " << value << ", \"cpu_time\": " << value
        << ", \"time_unit\": \"" << unit << "\"}";
  };
  for (const OverheadRow& r : rows) {
    // The gated entries: end-to-end time with a (never-firing) control
    // attached. A regression here is a real hot-path slowdown, whether it
    // comes from the checks themselves or from the code they guard.
    emit("CancelOverhead/" + r.id + "/with_control", "iteration",
         r.control_sec * 1e9, "ns");
    emit("CancelOverhead/" + r.id + "/ratio", "aggregate", r.ratio(), "x");
  }
  emit("CancelOverhead/geomean_ratio", "aggregate", geomean, "x");
  emit("CancelLatency/cancel_avg", "aggregate", cancel_lat.avg_ms, "ms");
  emit("CancelLatency/cancel_max", "aggregate", cancel_lat.max_ms, "ms");
  emit("CancelLatency/deadline_overshoot_avg", "aggregate",
       deadline_lat.avg_ms, "ms");
  emit("CancelLatency/deadline_overshoot_max", "aggregate",
       deadline_lat.max_ms, "ms");
  out << "\n  ]\n}\n";
  std::cout << "lifecycle JSON written to " << path << " (geomean overhead "
            << geomean << "x)\n";
}

void Run(const char* json_path_arg) {
  double scale = ScaleFromEnv();
  double min_sample = 0.02 * RunsFromEnv();

  LubmConfig cfg;
  cfg.num_universities = static_cast<uint32_t>(40 * scale);
  Graph graph = Graph::FromTriples(GenerateLubm(cfg));
  TripleIndex index = TripleIndex::Build(graph);
  PrintDatasetHeader("LUBM-like (lifecycle ablation)", graph);

  // --- Experiment 1: the cost of carrying a control that never fires.
  auto queries = LubmQueries();
  std::vector<OverheadRow> rows;
  TablePrinter table({"query", "no control", "with control", "overhead"});
  for (const BenchQuery& q : queries) {
    ParsedQuery parsed = Parser::Parse(q.sparql);
    OverheadRow row;
    row.id = q.id;
    // Three interleaved samples per variant, medians kept, so slow drift
    // in machine load hits both variants alike instead of skewing the
    // ratio.
    Engine plain_engine(&index, &graph.dict());
    Engine control_engine(&index, &graph.dict());
    std::vector<double> plain_samples, control_samples;
    for (int s = 0; s < 3; ++s) {
      plain_samples.push_back(TimeMinSample(
          [&] { plain_engine.Execute(parsed, [](const RawRow&) {}); },
          min_sample));
      control_samples.push_back(TimeMinSample(
          [&] {
            QueryControl control;
            control.SetTimeout(std::chrono::hours(1));
            control_engine.Execute(parsed, [](const RawRow&) {}, nullptr,
                                   &control);
          },
          min_sample));
    }
    row.nocontrol_sec = Median3(plain_samples);
    row.control_sec = Median3(control_samples);
    table.AddRow({q.id, TablePrinter::Seconds(row.nocontrol_sec),
                  TablePrinter::Seconds(row.control_sec),
                  std::to_string(row.ratio()) + "x"});
    rows.push_back(row);
  }
  double log_sum = 0;
  for (const OverheadRow& r : rows) log_sum += std::log(r.ratio());
  double geomean = std::exp(log_sum / static_cast<double>(rows.size()));
  table.AddRow({"geomean", "-", "-", std::to_string(geomean) + "x"});
  table.Print("Ablation A6: lifecycle-check overhead (never-firing control)");

  // --- Experiment 2: abort latency on a heavy join.
  LubmConfig heavy_cfg;
  heavy_cfg.num_universities = static_cast<uint32_t>(64 * scale);
  Graph heavy_graph = Graph::FromTriples(GenerateLubm(heavy_cfg));
  TripleIndex heavy_index = TripleIndex::Build(heavy_graph);
  ParsedQuery heavy = Parser::Parse(kHeavyQuery);
  EngineOptions heavy_options;
  heavy_options.enable_prune = false;  // keep the join long, not the prune

  // Unbounded reference time, so the aborts demonstrably land mid-run.
  double unbounded_sec;
  {
    Engine engine(&heavy_index, &heavy_graph.dict(), heavy_options);
    Stopwatch w;
    engine.Execute(heavy, [](const RawRow&) {});
    unbounded_sec = w.Seconds();
  }

  const int latency_reps = 5;
  std::vector<double> cancel_lat, deadline_lat;
  for (int rep = 0; rep < latency_reps; ++rep) {
    // (a) asynchronous Cancel() from another thread, a third in.
    {
      Engine engine(&heavy_index, &heavy_graph.dict(), heavy_options);
      QueryControl control;
      auto fire_after =
          std::chrono::duration<double>(unbounded_sec / 3.0);
      Stopwatch run_watch;
      std::thread canceller([&] {
        std::this_thread::sleep_for(fire_after);
        control.Cancel();
      });
      try {
        engine.Execute(heavy, [](const RawRow&) {}, nullptr, &control);
        std::cerr << "cancel landed too late; raise LBR_SCALE\n";
      } catch (const QueryAbortedError&) {
        cancel_lat.push_back(run_watch.Seconds() - fire_after.count());
      }
      canceller.join();
    }
    // (b) deadline landing a third of the way in.
    {
      Engine engine(&heavy_index, &heavy_graph.dict(), heavy_options);
      QueryControl control;
      double deadline_sec = unbounded_sec / 3.0;
      control.SetTimeout(std::chrono::milliseconds(
          static_cast<int64_t>(deadline_sec * 1e3)));
      Stopwatch run_watch;
      try {
        engine.Execute(heavy, [](const RawRow&) {}, nullptr, &control);
        std::cerr << "deadline landed too late; raise LBR_SCALE\n";
      } catch (const QueryAbortedError&) {
        deadline_lat.push_back(run_watch.Seconds() - deadline_sec);
      }
    }
  }
  if (cancel_lat.empty() || deadline_lat.empty()) {
    std::cerr << "no aborts landed mid-run; latency numbers unavailable\n";
    std::exit(1);
  }
  LatencyStats cancel_stats = Summarize(cancel_lat);
  LatencyStats deadline_stats = Summarize(deadline_lat);
  TablePrinter lat_table({"abort kind", "avg latency", "max latency"});
  auto ms = [](double v) { return std::to_string(v) + " ms"; };
  lat_table.AddRow({"Cancel() from another thread", ms(cancel_stats.avg_ms),
                    ms(cancel_stats.max_ms)});
  lat_table.AddRow({"deadline overshoot", ms(deadline_stats.avg_ms),
                    ms(deadline_stats.max_ms)});
  lat_table.Print("Abort latency on the co-enrollment join (unbounded run: " +
                  TablePrinter::Seconds(unbounded_sec) + ")");

  const char* env_path = std::getenv("LBR_BENCH_JSON");
  std::string json_path = json_path_arg != nullptr ? json_path_arg
                          : env_path != nullptr    ? env_path
                                                   : "";
  if (!json_path.empty()) {
    WriteJson(rows, geomean, cancel_stats, deadline_stats, json_path);
  }
}

}  // namespace
}  // namespace lbr::bench

int main(int argc, char** argv) {
  lbr::bench::Run(argc > 1 ? argv[1] : nullptr);
  return 0;
}
