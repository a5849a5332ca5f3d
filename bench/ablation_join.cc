// Ablation A5: candidate enumeration inside the multiway pipelined join
// (Alg 5.4). The join filters every free-dimension candidate set
// word-parallel against the folds and bound rows of the unvisited
// absolute-master TPs sharing the variable before recursing (DESIGN.md
// §6). Two configurations per query:
//  - intersect: that path on the dispatched (SIMD) kernels;
//  - intersect_scalar: the same path pinned to the scalar kernel table.
// Both emit the identical row stream — the join-equivalence suite proves
// it — so the timing difference is pure kernel cost.
//
// Two timing levels per LUBM query (cyclic + OPTIONAL shapes):
//  - join-only: states loaded (and optionally pruned) once, then
//    MultiwayJoin::Run timed in isolation. The "pruned" variant shows the
//    steady-state engine path; the "unpruned" variant shows the raw
//    candidate sets on multi-constraint jvars (prune_triples off, the sets
//    the intersection actually shrinks).
//  - end-to-end: Engine::Execute with default options.
//
// With LBR_BENCH_JSON=<path> (or argv[1]) the results are written as a
// google-benchmark-style JSON document for the CI perf trajectory.
// LBR_JOIN_STATS=1 additionally prints per-query enumeration telemetry.

#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/goj.h"
#include "core/gosn.h"
#include "core/jvar_order.h"
#include "core/multiway_join.h"
#include "core/prune.h"
#include "util/bitops.h"
#include "workload/lubm_gen.h"

namespace lbr::bench {
namespace {

struct JoinCase {
  std::string id;
  std::string sparql;
};

struct JoinTiming {
  std::string id;
  std::string variant;  // "pruned", "unpruned", "e2e"
  bool cyclic = false;
  bool multi_constraint = false;  // some jvar shared by >=2 abs masters
  uint64_t rows = 0;
  double intersect_scalar_sec = 0;
  double intersect_sec = 0;
};

// Pipeline state up to the join, rebuilt per query/variant.
struct JoinSetup {
  ParsedQuery parsed;
  Gosn gosn;
  Goj goj;
  GlobalIds ids;
  std::vector<TpState> states;
  std::vector<int> stps;
  bool cyclic = false;
  bool multi_constraint = false;

  JoinSetup(const TripleIndex& index, const Dictionary& dict,
            const std::string& sparql, bool prune)
      : parsed(Parser::Parse(sparql)),
        gosn(Gosn::Build(*parsed.body)),
        goj(Goj::Build(gosn.tps())),
        ids(GlobalIds::FromDictionary(dict)),
        dict_(&dict) {
    cyclic = goj.IsCyclic();
    for (size_t i = 0; i < gosn.tps().size(); ++i) {
      TpState st;
      st.tp = gosn.tps()[i];
      st.tp_id = static_cast<int>(i);
      st.sn_id = gosn.SupernodeOf(st.tp_id);
      st.mat = LoadTpBitMat(index, dict, st.tp, true);
      states.push_back(std::move(st));
    }
    // Multi-constraint jvar: some variable is shared by two or more
    // absolute-master TPs — the only TPs whose constraints the
    // intersection may exploit (a slave miss must stay a NULL binding).
    std::set<std::string> vars;
    for (const TpState& st : states) {
      for (const std::string& v : st.tp.Vars()) vars.insert(v);
    }
    for (const std::string& v : vars) {
      int masters = 0;
      for (const TpState& st : states) {
        if (gosn.IsAbsoluteMaster(st.sn_id) && st.mat.HasVar(v)) ++masters;
      }
      if (masters >= 2) {
        multi_constraint = true;
        break;
      }
    }
    if (prune) {
      std::vector<uint64_t> cards;
      for (const TpState& st : states) cards.push_back(st.CurrentCount());
      JvarOrder order = GetJvarOrder(gosn, goj, cards);
      PruneTriples(order, gosn, goj, index.num_common(), &states);
    }
    stps.resize(states.size());
    for (size_t i = 0; i < states.size(); ++i) stps[i] = static_cast<int>(i);
  }

  // Times MultiwayJoin::Run; the join object is kept across repetitions so
  // transpose caches and fold memos are warm. The engine builds one join
  // per branch and runs it once, so this times repeated Runs of a warm
  // join, not the engine's cold first Run.
  // Returns seconds per run; *rows gets the emission count (identical on
  // every kernel backend — asserted by the caller).
  double Time(double min_sample_sec, uint64_t* rows,
              bool force_scalar = false) {
    if (force_scalar) {
      bitops::ForceKernelBackend(bitops::KernelBackend::kScalar);
    }
    MultiwayJoin::Options options;
    options.nullification = cyclic;
    options.filters = gosn.filters();
    MultiwayJoin join(gosn, ids, *dict_, &states, stps, options);
    ExecContext ctx;
    uint64_t n = 0;
    auto run_once = [&] {
      RowSlab rows(join.var_names().size());
      rows.Reserve(n);  // the previous run's count: one allocation per run
      n = join.Run(&rows, &ctx);
    };
    double sec = TimeMinSample(run_once, min_sample_sec);
    if (force_scalar) bitops::ResetKernelBackend();
    *rows = n;
    if (!force_scalar && std::getenv("LBR_JOIN_STATS") != nullptr) {
      std::cerr << "  [stats] candidates=" << join.enum_candidates()
                << " pruned_static=" << join.enum_pruned_static()
                << " pruned_bound=" << join.enum_pruned_bound()
                << " emitted=" << n << "\n";
    }
    return sec;
  }

  const Dictionary* dict_;
};

std::vector<JoinCase> Cases() {
  std::vector<JoinCase> cases;
  // Pure cyclic master triangles: every jvar is constrained by two other
  // absolute masters — the multi-constraint shape the intersection
  // targets. TRI is sparse (an advisor teaches a handful of courses);
  // PUBTRI and DEPTTRI join through the dense publication-author and
  // department-membership predicates, whose wide candidate rows mostly
  // roll back downstream unless the intersection filters them first.
  cases.push_back(
      {"TRI",
       "PREFIX ub: <http://lubm/>\n"
       "SELECT * WHERE { ?x ub:advisor ?y . ?y ub:teacherOf ?c . "
       "?x ub:takesCourse ?c . }"});
  cases.push_back(
      {"PUBTRI",
       "PREFIX ub: <http://lubm/>\n"
       "SELECT * WHERE { ?p ub:publicationAuthor ?st . "
       "?p ub:publicationAuthor ?prof . ?st ub:advisor ?prof . }"});
  cases.push_back(
      {"DEPTTRI",
       "PREFIX ub: <http://lubm/>\n"
       "SELECT * WHERE { ?st ub:memberOf ?dept . ?prof ub:worksFor ?dept . "
       "?st ub:advisor ?prof . }"});
  // The master BGP cores of LUBM Q1-Q3: the OPTIONAL-free join webs where
  // every jvar is multi-constraint. The full queries (below) additionally
  // expand slave OPT groups, work the intersection deliberately leaves
  // untouched (a slave miss must surface as a NULL row, not be pruned).
  cases.push_back(
      {"Q1M",
       "PREFIX ub: <http://lubm/>\n"
       "SELECT * WHERE { ?st ub:teachingAssistantOf ?course . "
       "?prof ub:teacherOf ?course . ?st ub:advisor ?prof . }"});
  cases.push_back(
      {"Q2M",
       "PREFIX ub: <http://lubm/>\n"
       "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
       "SELECT * WHERE { ?pub rdf:type ub:Publication . "
       "?pub ub:publicationAuthor ?st . ?pub ub:publicationAuthor ?prof . "
       "?st ub:undergraduateDegreeFrom ?univ . "
       "?dept ub:subOrganizationOf ?univ . ?st ub:memberOf ?dept . "
       "?prof ub:worksFor ?dept . }"});
  cases.push_back(
      {"Q3M",
       "PREFIX ub: <http://lubm/>\n"
       "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
       "SELECT * WHERE { ?pub ub:publicationAuthor ?st . "
       "?pub ub:publicationAuthor ?prof . ?st rdf:type ub:GraduateStudent . "
       "?st ub:advisor ?prof . ?st ub:memberOf ?dept . "
       "?prof ub:worksFor ?dept . ?prof rdf:type ub:FullProfessor . }"});
  // A dense 4-cycle through the publication-author and
  // department-membership predicates.
  cases.push_back(
      {"PUBSQ",
       "PREFIX ub: <http://lubm/>\n"
       "SELECT * WHERE { ?p ub:publicationAuthor ?st . "
       "?p ub:publicationAuthor ?prof . ?prof ub:worksFor ?dept . "
       "?st ub:memberOf ?dept . }"});
  for (const BenchQuery& q : LubmQueries()) {
    cases.push_back({q.id, q.sparql});
  }
  return cases;
}

void WriteJson(const std::vector<JoinTiming>& rows, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  auto ns = [](double sec) { return sec * 1e9; };
  out << "{\n  " << JsonContext("ablation_join", "LUBM-like")
      << ",\n  \"benchmarks\": [\n";
  bool first = true;
  for (const JoinTiming& r : rows) {
    auto emit = [&](const std::string& config, double sec) {
      if (!first) out << ",\n";
      first = false;
      out << "    {\"name\": \"JoinEnum/" << r.id << "/" << r.variant << "/"
          << config << "\", \"run_type\": \"iteration\", \"real_time\": "
          << ns(sec) << ", \"cpu_time\": " << ns(sec)
          << ", \"time_unit\": \"ns\", \"rows\": " << r.rows
          << ", \"cyclic\": " << (r.cyclic ? "true" : "false")
          << ", \"multi_constraint\": "
          << (r.multi_constraint ? "true" : "false") << "}";
    };
    emit("intersect_scalar", r.intersect_scalar_sec);
    emit("intersect", r.intersect_sec);
  }
  out << "\n  ]\n}\n";
  std::cout << "join-enumeration JSON written to " << path << "\n";
}

void Run(const char* json_path_arg) {
  double scale = ScaleFromEnv();
  // LBR_RUNS scales the minimum timed-sample length: short queries repeat
  // until the sample is long enough for the ratio to be trustworthy.
  double min_sample = 0.02 * RunsFromEnv();

  LubmConfig cfg;
  cfg.num_universities = static_cast<uint32_t>(40 * scale);
  Graph graph = Graph::FromTriples(GenerateLubm(cfg));
  TripleIndex index = TripleIndex::Build(graph);
  PrintDatasetHeader("LUBM-like (join-enumeration ablation)", graph);

  // Profiling hook: LBR_PROF=<query_id> runs that query's unpruned join on
  // the dispatched kernels in a tight loop for ~5 s and exits, so a -pg or
  // perf-record build's profile covers exactly that configuration.
  if (const char* prof = std::getenv("LBR_PROF")) {
    const std::string qid(prof);
    for (const JoinCase& c : Cases()) {
      if (c.id != qid) continue;
      JoinSetup setup(index, graph.dict(), c.sparql, /*prune=*/false);
      uint64_t rows = 0;
      setup.Time(5.0, &rows);
      std::cout << "prof " << qid << " rows=" << rows << "\n";
      return;
    }
    std::cerr << "LBR_PROF: unknown query " << qid << "\n";
    std::exit(1);
  }

  // Three interleaved samples per configuration, medians kept: scheduler
  // drift on a shared box otherwise lands straight in the archived ratio.
  // `time` runs one configuration and stores its row count.
  auto measure = [](JoinTiming* t, auto&& time) {
    uint64_t rows_scalar = 0, rows_simd = 0;
    std::vector<double> scalar, simd;
    for (int rep = 0; rep < 3; ++rep) {
      scalar.push_back(time(&rows_scalar, /*force_scalar=*/true));
      simd.push_back(time(&rows_simd, /*force_scalar=*/false));
    }
    if (rows_scalar != rows_simd) {
      std::cerr << t->id << "/" << t->variant << ": kernel backends disagree ("
                << rows_scalar << "/" << rows_simd
                << " rows); ablation invalid\n";
      std::exit(1);
    }
    t->rows = rows_simd;
    t->intersect_scalar_sec = Median3(scalar);
    t->intersect_sec = Median3(simd);
  };

  std::vector<JoinTiming> results;
  for (const JoinCase& c : Cases()) {
    for (bool prune : {true, false}) {
      JoinSetup setup(index, graph.dict(), c.sparql, prune);
      JoinTiming t;
      t.id = c.id;
      t.variant = prune ? "pruned" : "unpruned";
      t.cyclic = setup.cyclic;
      t.multi_constraint = setup.multi_constraint;
      measure(&t, [&](uint64_t* rows, bool force_scalar) {
        return setup.Time(min_sample, rows, force_scalar);
      });
      results.push_back(t);
    }

    // End-to-end with default engine options.
    ParsedQuery parsed = Parser::Parse(c.sparql);
    JoinTiming t = results.back();
    t.variant = "e2e";
    measure(&t, [&](uint64_t* rows, bool force_scalar) {
      if (force_scalar) {
        bitops::ForceKernelBackend(bitops::KernelBackend::kScalar);
      }
      Engine engine(&index, &graph.dict());
      double sec = TimeMinSample(
          [&] { *rows = engine.Execute(parsed, [](const RawRow&) {}); },
          min_sample);
      if (force_scalar) bitops::ResetKernelBackend();
      return sec;
    });
    results.push_back(t);
  }

  TablePrinter table(
      {"query", "variant", "multi-constr", "rows", "scalar", "dispatched"});
  for (const JoinTiming& r : results) {
    table.AddRow({r.id, r.variant, TablePrinter::YesNo(r.multi_constraint),
                  TablePrinter::Count(r.rows),
                  TablePrinter::Seconds(r.intersect_scalar_sec),
                  TablePrinter::Seconds(r.intersect_sec)});
  }
  table.Print(std::string("Ablation A5: intersected join enumeration, scalar "
                          "vs dispatched (") +
              bitops::ActiveKernelName() + ") kernels");

  const char* env_path = std::getenv("LBR_BENCH_JSON");
  std::string json_path = json_path_arg != nullptr ? json_path_arg
                          : env_path != nullptr    ? env_path
                                                   : "";
  if (!json_path.empty()) WriteJson(results, json_path);
}

}  // namespace
}  // namespace lbr::bench

int main(int argc, char** argv) {
  lbr::bench::Run(argc > 1 ? argv[1] : nullptr);
  return 0;
}
