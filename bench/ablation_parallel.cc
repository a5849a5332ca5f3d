// Ablation A4b: the parallel execution layer, whose unit is a whole
// query. Engine::ExecuteBatch fans the LUBM query set (replicated) across
// 1/2/4/8 runner threads, every runner engine sharing one TpCache — the
// server deployment shape.
//
// With LBR_BENCH_JSON=<path> (or argv[1]) results are written as
// google-benchmark-style JSON (the same schema as micro_bitops /
// ablation_tp_cache) so CI archives them with the bench-json artifact.
// The context records hardware_threads: speedups are only meaningful when
// the machine actually has the cores (a 1-core container shows ~1x).

#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/thread_pool.h"
#include "workload/lubm_gen.h"

namespace lbr::bench {
namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8};

struct SweepResult {
  int threads = 0;
  double sec = 0;
  double speedup_vs_1t = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_contention = 0;
};

std::vector<SweepResult> RunBatchSweep(const Graph& graph,
                                       const TripleIndex& index, int runs,
                                       int replicas) {
  std::vector<std::string> queries;
  for (int rep = 0; rep < replicas; ++rep) {
    for (const BenchQuery& q : LubmQueries()) queries.push_back(q.sparql);
  }

  std::vector<SweepResult> results;
  for (int threads : kThreadSweep) {
    ThreadPool pool(threads);
    BatchOptions options;
    options.engine.enable_tp_cache = true;
    options.pool = threads > 1 ? &pool : nullptr;
    // Unbounded budget: eviction noise would corrupt the scaling numbers
    // at high LBR_SCALE.
    options.shared_cache = std::make_shared<TpCache>(~uint64_t{0});

    SweepResult r;
    r.threads = threads;
    r.sec = TimeAvg(runs, [&] {
      std::vector<BatchResult> batch =
          Engine::ExecuteBatch(index, graph.dict(), queries, options);
      for (const BatchResult& br : batch) {
        if (!br.ok()) {
          std::cerr << "batch query failed: " << br.error << "\n";
          std::exit(1);
        }
      }
    });
    r.speedup_vs_1t = results.empty() ? 1.0 : results.front().sec / r.sec;
    r.cache_hits = options.shared_cache->hits();
    r.cache_contention = options.shared_cache->lock_contention();
    results.push_back(r);
  }
  return results;
}

// --- Reporting. -------------------------------------------------------------

void PrintSweep(const std::vector<SweepResult>& results) {
  TablePrinter table({"threads", "avg time", "speedup vs 1t", "cache hits",
                      "contended locks"});
  for (const SweepResult& r : results) {
    table.AddRow(
        {std::to_string(r.threads), TablePrinter::Seconds(r.sec),
         TablePrinter::Count(static_cast<uint64_t>(r.speedup_vs_1t * 100)) +
             "%",
         TablePrinter::Count(r.cache_hits),
         TablePrinter::Count(r.cache_contention)});
  }
  table.Print("Ablation A4b: shared-cache batch thread sweep");
}

void WriteJson(const std::vector<SweepResult>& batch,
               const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  auto ns = [](double sec) { return sec * 1e9; };
  out << "{\n  " << JsonContext("ablation_parallel", "LUBM-like")
      << ",\n  \"benchmarks\": [\n";
  double speedup_4t = 0;
  for (const SweepResult& r : batch) {
    out << "    {\"name\": \"SharedCacheBatch/threads:" << r.threads
        << "\", \"run_type\": \"iteration\", \"real_time\": " << ns(r.sec)
        << ", \"cpu_time\": " << ns(r.sec)
        << ", \"time_unit\": \"ns\", \"threads\": " << r.threads
        << ", \"speedup_vs_1thread\": " << r.speedup_vs_1t << "},\n";
    if (r.threads == 4) speedup_4t = r.speedup_vs_1t;
  }
  out << "    {\"name\": \"SharedCacheBatch/speedup_4t_vs_1t\", "
      << "\"run_type\": \"aggregate\", \"real_time\": " << speedup_4t
      << ", \"cpu_time\": " << speedup_4t << ", \"time_unit\": \"x\"}";
  out << "\n  ]\n}\n";
  std::cout << "parallel-sweep JSON written to " << path << "\n";
}

void Run(const char* json_path_arg) {
  double scale = ScaleFromEnv();
  int runs = RunsFromEnv();

  LubmConfig batch_cfg;
  batch_cfg.num_universities = static_cast<uint32_t>(40 * scale);
  Graph batch_graph = Graph::FromTriples(GenerateLubm(batch_cfg));
  TripleIndex batch_index = TripleIndex::Build(batch_graph);
  PrintDatasetHeader("LUBM-like (shared-cache batch)", batch_graph);

  std::vector<SweepResult> batch =
      RunBatchSweep(batch_graph, batch_index, runs, /*replicas=*/4);
  PrintSweep(batch);

  const char* env_path = std::getenv("LBR_BENCH_JSON");
  std::string json_path = json_path_arg != nullptr ? json_path_arg
                          : env_path != nullptr    ? env_path
                                                   : "";
  if (!json_path.empty()) WriteJson(batch, json_path);
}

}  // namespace
}  // namespace lbr::bench

int main(int argc, char** argv) {
  lbr::bench::Run(argc > 1 ? argv[1] : nullptr);
  return 0;
}
