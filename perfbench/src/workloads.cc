// The three workloads of the end-to-end benchmark (README.md beside this
// directory gives the why of each). Every query goes through the public
// API exactly as a user sends it: Database + Engine::ExecuteToTable(text)
// for the single-client workloads, Database::ExecuteBatch for the batch
// one. Layers are timed from outside, by timing the calls into them and by
// reading the QueryStats the engine fills; nothing is traced inside src/.

#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>

#include "baseline/pairwise_engine.h"
#include "core/database.h"
#include "core/global_ids.h"
#include "duet.h"
#include "harness.h"
#include "rdf/ntriples.h"
#include "sparql/parser.h"
#include "util/bitops.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/dbpedia_gen.h"
#include "workload/lubm_gen.h"
#include "workload/query_sets.h"
#include "workload/uniprot_gen.h"

namespace perfbench {
namespace {

using lbr::Database;
using lbr::EngineOptions;
using lbr::QueryStats;
using lbr::ResultTable;

// --- Sizes -------------------------------------------------------------------
// Fixed per workload; only the generator seeds come from --seed. The paper
// mix keeps all 19 queries fast enough that a run collects well over the
// 1000 samples p99 needs; the snapshot LUBM is 4x the paper-mix LUBM.

constexpr uint32_t kPaperLubmUniversities = 20;
constexpr uint32_t kPaperUniprotProteins = 6000;
constexpr double kPaperDbpediaScale = 0.5;
constexpr uint32_t kParamLubmUniversities = 20;
constexpr uint32_t kSnapshotLubmUniversities = 80;
/// Departments the snapshot-batch stream draws its parameterized queries
/// from (a subset, so its oracle stays a few seconds).
constexpr uint32_t kSnapshotParamDepartments = 48;
constexpr size_t kBatchSize = 8;
constexpr int kBatchRunners = 2;
/// The snapshot budget as a share of the measured working set.
constexpr uint64_t kBudgetDivisor = 4;
/// Set-up and re-open repetitions; their medians are reported. Set-up
/// repeats visit the CPUs in turn, twice each on a 4-CPU machine.
constexpr int kSetupRepeats = 8;
constexpr int kReopens = 11;
/// Pairwise baseline timings per paper query in traced runs.
constexpr int kBaselineRuns = 3;
/// A traced run alternates this many untraced and traced stretches, so the
/// host's speed drift hits both alike and trace.overhead_ratio compares
/// like with like.
constexpr int kTraceRounds = 6;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return Mix(seed ^ Mix(salt));
}

// --- Datasets ----------------------------------------------------------------

struct Source {
  std::string name;
  std::string nt_path;
  uint64_t triples = 0;
};

Source WriteSource(const Options& opt, const std::string& name,
                   const std::function<void(const lbr::LubmSink&)>& gen) {
  Source src{name, opt.work_dir + "/" + name + ".nt", 0};
  std::ofstream out(src.nt_path);
  if (!out) Fail("cannot write " + src.nt_path);
  gen([&](const lbr::TermTriple& t) {
    out << lbr::NTriples::ToLine(t) << '\n';
    ++src.triples;
  });
  if (!out) Fail("write failed for " + src.nt_path);
  return src;
}

Source LubmSource(const Options& opt, const std::string& name,
                  uint32_t universities) {
  lbr::LubmConfig cfg;
  cfg.num_universities = universities;
  if (opt.tiny) {
    cfg.grad_students_per_department = 5;
    cfg.undergrad_students_per_department = 8;
    cfg.courses_per_department = 4;
  }
  cfg.seed = SubSeed(opt.seed, 1);
  return WriteSource(opt, name, [&cfg](const lbr::LubmSink& sink) {
    lbr::GenerateLubm(cfg, sink);
  });
}

Source UniprotSource(const Options& opt) {
  lbr::UniprotConfig cfg;
  cfg.num_proteins = opt.tiny ? 300 : kPaperUniprotProteins;
  cfg.seed = SubSeed(opt.seed, 2);
  return WriteSource(opt, "uniprot", [&cfg](const lbr::LubmSink& sink) {
    for (const lbr::TermTriple& t : lbr::GenerateUniprot(cfg)) sink(t);
  });
}

Source DbpediaSource(const Options& opt) {
  // bench/table6_4_dbpedia's sizes, times kPaperDbpediaScale.
  double s = opt.tiny ? 0.03 : kPaperDbpediaScale;
  lbr::DbpediaConfig cfg;
  cfg.num_places = static_cast<uint32_t>(4000 * s);
  cfg.num_persons = static_cast<uint32_t>(6000 * s);
  cfg.num_soccer_players = static_cast<uint32_t>(3000 * s);
  cfg.num_settlements = static_cast<uint32_t>(1500 * s);
  cfg.num_airports = static_cast<uint32_t>(600 * s);
  cfg.num_companies = static_cast<uint32_t>(2000 * s);
  cfg.num_noise_triples = static_cast<uint32_t>(40000 * s);
  cfg.seed = SubSeed(opt.seed, 3);
  return WriteSource(opt, "dbpedia", [&cfg](const lbr::LubmSink& sink) {
    for (const lbr::TermTriple& t : lbr::GenerateDbpedia(cfg)) sink(t);
  });
}

// --- Query pools and streams ---------------------------------------------------

/// One distinct query text the stream may send, with its oracle hash.
struct PoolQuery {
  int db = 0;   ///< Index into the workload's databases.
  int key = 0;  ///< Geomean group: a paper query id or a parameterized shape.
  std::string text;
  uint64_t expected = 0;
  double pairwise_ms = 0;
  bool parse_timed = false;
};

struct Workload {
  std::vector<Source> sources;
  std::vector<std::string> keys;  ///< Names of the geomean groups.
  std::vector<PoolQuery> pool;
  /// The closed loop's next query, as an index into `pool`. Deterministic
  /// in --seed.
  std::function<size_t()> next;
  /// A single-client loop moves to the next CPU after this many queries:
  /// whole rounds of the stream, tens of milliseconds of work, so every
  /// CPU sees the same mix and a move's cold caches cost little.
  size_t queries_per_cpu = 1;
  uint64_t sent = 0;  ///< Queries sent by the single-client loop so far.
  /// The reference engine's nominal time for one round of queries_per_cpu
  /// queries: its median on the host described in README.md (Caveats).
  /// Untraced single-client runs report latencies at this speed (DuetLoop).
  double ref_round_ms = 0;
  /// The reference's nominal set-up time, likewise (Setup).
  double ref_setup_s = 0;
};

/// Yields 0..n-1 once per round, each round in a fresh seeded order, so
/// every run sends the same query mix whatever its length.
class ShuffledRounds {
 public:
  ShuffledRounds(size_t n, uint64_t seed)
      : order_(n), rng_(seed), pos_(n) {
    for (size_t i = 0; i < n; ++i) order_[i] = i;
  }
  size_t Next() {
    if (pos_ == order_.size()) {
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.Uniform(i)]);
      }
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::vector<size_t> order_;
  lbr::Rng rng_;
  size_t pos_;
};

std::string ReplaceOnce(std::string text, const std::string& from,
                        const std::string& to) {
  size_t at = text.find(from);
  if (at == std::string::npos) Fail("query template lacks " + from);
  return text.replace(at, from.size(), to);
}

/// The three parameterized shapes of lubm-param: the paper's Q4/Q5 (a
/// selective master with a cyclic OPTIONAL slave that needs best-match),
/// its Q6 (an attribute star), and the department-advisees shape of the
/// plan-cache ablation. Each takes one department constant.
const std::vector<std::string>& ParamShapeNames() {
  static const std::vector<std::string> names = {"bestmatch", "star",
                                                 "advisees"};
  return names;
}

std::string ParamQuery(size_t shape, uint32_t university,
                       uint32_t department) {
  static const std::vector<lbr::BenchQuery> paper = lbr::LubmQueries();
  const std::string dept =
      "<" + lbr::LubmDepartmentIri(university, department) + ">";
  switch (shape) {
    case 0:
      return ReplaceOnce(paper[3].sparql,
                         "<http://lubm/Department1.University9>", dept);
    case 1:
      return ReplaceOnce(paper[5].sparql,
                         "<http://lubm/Department0.University12>", dept);
    default:
      return "SELECT * WHERE { ?prof <http://lubm/worksFor> " + dept +
             " . ?st <http://lubm/advisor> ?prof . "
             "OPTIONAL { ?prof <http://lubm/emailAddress> ?email } "
             "OPTIONAL { ?st <http://lubm/takesCourse> ?course } }";
  }
}

/// Q5 and the Q6 template name University12, so even the tiny scale keeps
/// 13 universities.
uint32_t Universities(const Options& opt, uint32_t full) {
  return opt.tiny ? 13 : full;
}
constexpr uint32_t kDepartmentsPerUniversity = 4;  // LubmConfig's default

Workload PaperMix(const Options& opt) {
  Workload w;
  w.sources = {LubmSource(opt, "lubm",
                          Universities(opt, kPaperLubmUniversities)),
               UniprotSource(opt), DbpediaSource(opt)};
  const std::vector<std::vector<lbr::BenchQuery>> sets = {
      lbr::LubmQueries(), lbr::UniprotQueries(), lbr::DbpediaQueries()};
  const char* prefixes[] = {"lubm.", "uniprot.", "dbpedia."};
  for (size_t d = 0; d < sets.size(); ++d) {
    for (const lbr::BenchQuery& q : sets[d]) {
      PoolQuery pq;
      pq.db = static_cast<int>(d);
      pq.key = static_cast<int>(w.keys.size());
      pq.text = q.sparql;
      w.keys.push_back(prefixes[d] + q.id);
      w.pool.push_back(std::move(pq));
    }
  }
  auto rounds = std::make_shared<ShuffledRounds>(w.pool.size(),
                                                 SubSeed(opt.seed, 10));
  w.next = [rounds]() { return rounds->Next(); };
  w.queries_per_cpu = w.pool.size();  // one round, about 90 ms
  w.ref_round_ms = 95;
  w.ref_setup_s = 0.45;
  return w;
}

Workload LubmParam(const Options& opt) {
  Workload w;
  const uint32_t universities = Universities(opt, kParamLubmUniversities);
  w.sources = {LubmSource(opt, "lubm", universities)};
  w.keys = ParamShapeNames();
  const uint32_t depts = universities * kDepartmentsPerUniversity;
  // Pool layout: shape-major, one entry per department of the dataset.
  for (size_t shape = 0; shape < w.keys.size(); ++shape) {
    for (uint32_t d = 0; d < depts; ++d) {
      PoolQuery pq;
      pq.key = static_cast<int>(shape);
      pq.text = ParamQuery(shape, d / kDepartmentsPerUniversity,
                           d % kDepartmentsPerUniversity);
      w.pool.push_back(std::move(pq));
    }
  }
  auto shapes = std::make_shared<ShuffledRounds>(w.keys.size(),
                                                 SubSeed(opt.seed, 11));
  auto rng = std::make_shared<lbr::Rng>(SubSeed(opt.seed, 12));
  w.next = [shapes, rng, depts]() {
    return shapes->Next() * depts + rng->Uniform(depts);
  };
  w.queries_per_cpu = 500 * w.keys.size();  // 500 rounds, about 250 ms
  w.ref_round_ms = 250;
  w.ref_setup_s = 0.065;
  return w;
}

Workload SnapshotBatch(const Options& opt) {
  Workload w;
  const uint32_t universities = Universities(opt, kSnapshotLubmUniversities);
  w.sources = {LubmSource(opt, "lubm-large", universities)};
  // Pool: the paper's low-selectivity Q1-Q3, then the three parameterized
  // shapes over a subset of departments.
  const std::vector<lbr::BenchQuery> paper = lbr::LubmQueries();
  for (int q = 0; q < 3; ++q) {
    PoolQuery pq;
    pq.key = q;
    pq.text = paper[q].sparql;
    w.keys.push_back("lubm." + paper[q].id);
    w.pool.push_back(std::move(pq));
  }
  // Evenly spaced, not seeded: the subset sets the working set and so the
  // budget, and a seeded one moved p50 by 10% from seed to seed.
  const uint32_t all_depts = universities * kDepartmentsPerUniversity;
  std::vector<uint32_t> depts(std::min(all_depts, kSnapshotParamDepartments));
  for (uint32_t i = 0; i < depts.size(); ++i) {
    depts[i] = static_cast<uint32_t>(uint64_t{i} * all_depts / depts.size());
  }
  const size_t first_param = w.pool.size();
  for (size_t shape = 0; shape < ParamShapeNames().size(); ++shape) {
    w.keys.push_back(ParamShapeNames()[shape]);
    for (uint32_t d : depts) {
      PoolQuery pq;
      pq.key = static_cast<int>(3 + shape);
      pq.text = ParamQuery(shape, d / kDepartmentsPerUniversity,
                           d % kDepartmentsPerUniversity);
      w.pool.push_back(std::move(pq));
    }
  }
  // Each batch of kBatchSize holds one paper query (Q1, Q2, Q3 in turn) at
  // a seeded position; the other slots are parameterized queries.
  struct State {
    lbr::Rng rng;
    ShuffledRounds shapes;
    size_t slot = kBatchSize, heavy_pos = 0, heavy = 2;
  };
  auto st = std::make_shared<State>(
      State{lbr::Rng(SubSeed(opt.seed, 21)),
            ShuffledRounds(ParamShapeNames().size(), SubSeed(opt.seed, 22))});
  const size_t n_depts = depts.size();
  w.next = [st, first_param, n_depts]() -> size_t {
    if (st->slot == kBatchSize) {
      st->slot = 0;
      st->heavy_pos = st->rng.Uniform(kBatchSize);
      st->heavy = (st->heavy + 1) % 3;
    }
    if (st->slot++ == st->heavy_pos) return st->heavy;
    return first_param + st->shapes.Next() * n_depts +
           st->rng.Uniform(n_depts);
  };
  w.ref_round_ms = 28;
  w.ref_setup_s = 0.27;
  return w;
}

/// The reference engine's side of workload `w` (duet.h).
DuetOptions DuetFor(const Workload& w) {
  DuetOptions d;
  for (const Source& s : w.sources) d.nt_paths.push_back(s.nt_path);
  for (const PoolQuery& q : w.pool) {
    d.queries.emplace_back(static_cast<size_t>(q.db), q.text);
  }
  return d;
}

// --- Set-up ------------------------------------------------------------------

struct SetupTimes {
  double total_s = 0;  ///< Median over kSetupRepeats.
  double measured_s = 0;  ///< With a reference: the median as measured.
  double ref_s = 0;       ///< With a reference: its median set-up time.
  double parse_s = 0;  ///< Traced runs only: NTriples::ParseStream.
  double build_s = 0;  ///< Traced runs only: Database::Build.
  double snapshot_write_s = 0;
};

/// Builds every source kSetupRepeats times, each repeat on the next CPU
/// of `cpus`, and keeps the last build. An untraced run times
/// BuildFromNTriples (+ SaveSnapshot when `snapshot_path` is set); a traced
/// run times its parse and build halves separately. Each repeat's sum over
/// the sources is one sample. With a `duet`, the reference repeats its own
/// set-up right before or after each repeat on the same CPU, and each
/// sample is taken at the reference's nominal speed: times `ref_setup_s`
/// over the reference's time.
std::vector<Database> Setup(const Options& opt,
                            const std::vector<Source>& sources,
                            const EngineOptions& engine_options,
                            const std::string& snapshot_path,
                            CpuRotation& cpus, Duet* duet, double ref_setup_s,
                            SetupTimes* times) {
  std::vector<double> total, measured, ref, parse, build, write;
  std::vector<Database> dbs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    dbs.clear();
    cpus.Next();
    const bool ref_first = rep % 2 == 1;
    if (duet != nullptr && ref_first) ref.push_back(duet->Setup(cpus.current()));
    double t_total = 0, t_parse = 0, t_build = 0, t_write = 0;
    for (const Source& src : sources) {
      auto t0 = std::chrono::steady_clock::now();
      if (opt.trace) {
        std::ifstream in(src.nt_path);
        if (!in) Fail("cannot read " + src.nt_path);
        std::vector<lbr::TermTriple> triples = lbr::NTriples::ParseStream(&in);
        auto t1 = std::chrono::steady_clock::now();
        dbs.push_back(Database::Build(triples, engine_options));
        auto t2 = std::chrono::steady_clock::now();
        t_parse += std::chrono::duration<double>(t1 - t0).count();
        t_build += std::chrono::duration<double>(t2 - t1).count();
      } else {
        dbs.push_back(Database::BuildFromNTriples(src.nt_path, engine_options));
      }
      if (!snapshot_path.empty()) {
        auto t1 = std::chrono::steady_clock::now();
        dbs.back().SaveSnapshot(snapshot_path);
        t_write += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t1)
                       .count();
      }
      t_total += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    }
    if (duet != nullptr && !ref_first) {
      ref.push_back(duet->Setup(cpus.current()));
    }
    measured.push_back(t_total);
    total.push_back(duet != nullptr ? t_total * ref_setup_s / ref.back()
                                    : t_total);
    parse.push_back(t_parse);
    build.push_back(t_build);
    write.push_back(t_write);
  }
  times->total_s = Median(total);
  times->measured_s = Median(measured);
  times->ref_s = Median(ref);
  times->parse_s = Median(parse);
  times->build_s = Median(build);
  times->snapshot_write_s = Median(write);
  return dbs;
}

// --- Correctness oracle ----------------------------------------------------------

/// Hashes every pool query's answer from PairwiseEngine, the column-store
/// stand-in that agrees with LBR on these well-designed queries. Runs in
/// set-up, outside every timed section. With `timing_runs` > 1 it also
/// records the pairwise median latency (the paper's baseline column).
void ComputeOracle(const Options& opt, const std::vector<Database*>& dbs,
                   int timing_runs, std::vector<PoolQuery>* pool) {
  for (PoolQuery& q : *pool) {
    const Database& db = *dbs[static_cast<size_t>(q.db)];
    lbr::PairwiseEngine pairwise(&db.index(), &db.dict());
    lbr::ParsedQuery parsed = lbr::Parser::Parse(q.text);
    std::vector<double> ms;
    for (int r = 0; r < timing_runs; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      ResultTable table = pairwise.ExecuteToTable(parsed);
      ms.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
      q.expected = TableHash(table);
    }
    q.pairwise_ms = Median(ms);
  }
  if (opt.break_oracle) (*pool)[0].expected ^= 1;
}

void Check(const PoolQuery& q, const ResultTable& table) {
  uint64_t got = TableHash(table);
  if (got != q.expected) {
    std::ostringstream os;
    os << "result hash mismatch (" << table.rows.size() << " rows, hash "
       << std::hex << got << ", oracle " << q.expected << ") for query:\n"
       << q.text;
    Fail(os.str());
  }
}

// --- Measurement ---------------------------------------------------------------

struct Sample {
  float latency_ms;
  uint32_t key;
};

/// Layer totals over the traced queries of a run.
struct Layers {
  uint64_t queries = 0;
  double query_ms = 0, plan_ms = 0, load_ms = 0, prune_ms = 0, join_ms = 0,
         decode_ms = 0, queue_ms = 0;
  uint64_t plan_hits = 0, plan_misses = 0, initial_triples = 0,
           after_prune = 0, rows = 0, null_rows = 0, best_match = 0;
  std::vector<double> parse_us, queue_wait_ms;

  void AddStats(const QueryStats& s) {
    ++queries;
    plan_ms += s.t_plan_sec * 1e3;
    load_ms += s.t_init_sec * 1e3;
    prune_ms += s.t_prune_sec * 1e3;
    join_ms += JoinSec(s) * 1e3;
    plan_hits += s.plan_cache_hits;
    plan_misses += s.plan_cache_misses;
    initial_triples += s.initial_triples;
    after_prune += s.triples_after_prune;
    rows += s.num_results;
    null_rows += s.num_results_with_nulls;
    best_match += s.best_match_used ? 1 : 0;
  }
  /// Join, best-match and nullification: what t_total leaves after the
  /// timed phases.
  static double JoinSec(const QueryStats& s) {
    return std::max(0.0, s.t_total_sec - s.t_plan_sec - s.t_init_sec -
                             s.t_prune_sec);
  }
};

/// Attaches the QueryStats phases as consecutive child spans of `parent`
/// starting at `start_us`; returns where the last one ends.
double PhaseSpans(Tracer& tracer, uint64_t parent, uint64_t query,
                  double start_us, const QueryStats& s) {
  const std::pair<const char*, double> phases[] = {
      {"core.plan", s.t_plan_sec},
      {"bitmat.load", s.t_init_sec},
      {"core.prune", s.t_prune_sec},
      {"core.join", Layers::JoinSec(s)}};
  double at = start_us;
  for (const auto& [name, sec] : phases) {
    tracer.Add(name, parent, query, at, sec * 1e6);
    at += sec * 1e6;
  }
  return at;
}

/// What one closed-loop stretch measured. The latency samples live in a
/// buffer of fixed size that is written once at construction, so the
/// harness's own memory does not grow with the run and stays out of
/// peak_rss_mb's variation; past kMaxSamples completed queries the buffer
/// is a uniform reservoir sample of them.
struct Phase {
  static constexpr size_t kMaxSamples = 1 << 19;

  Phase() {
    samples.resize(kMaxSamples);
    samples.clear();
  }

  void Record(int key, double ms) {
    ++completed;
    Sample s{static_cast<float>(ms), static_cast<uint32_t>(key)};
    if (samples.size() < kMaxSamples) {
      samples.push_back(s);
    } else if (uint64_t j = reservoir.Uniform(completed); j < kMaxSamples) {
      samples[j] = s;
    }
  }

  std::vector<Sample> samples;
  lbr::Rng reservoir{0x5eed};
  uint64_t completed = 0;
  double busy_s = 0;  ///< Sum of the timed sections.
  uint64_t attempted = 0, failed = 0;
  std::string first_error;

  void Failed(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }

  /// The qps of each stretch of an untraced run (TimedStretches), and
  /// where the current stretch began.
  std::vector<double> stretch_qps;
  uint64_t stretch_completed = 0;
  double stretch_busy_s = 0;

  /// Ends a stretch: notes the qps of the queries completed since the
  /// last call.
  void EndStretch() {
    const double busy = busy_s - stretch_busy_s;
    if (busy > 0) stretch_qps.push_back((completed - stretch_completed) / busy);
    stretch_completed = completed;
    stretch_busy_s = busy_s;
  }
};

/// What a plan-cache miss pays to parse `q`, timed the first time a traced
/// run meets the text, beside the query (the engine's own parse on a miss
/// is inside core.plan).
void TimeParseOnce(Tracer& tracer, uint64_t qid, PoolQuery& q,
                   Layers* layers) {
  if (q.parse_timed) return;
  q.parse_timed = true;
  const double p0 = tracer.NowUs();
  lbr::Parser::Parse(q.text);
  const double p1 = tracer.NowUs();
  tracer.Add("sparql.parse", 0, qid, p0, p1 - p0);
  layers->parse_us.push_back(p1 - p0);
}

/// One query as a user sends it. Untraced: a single timed
/// ExecuteToTable(text). Traced: Engine::Execute(text) into a row-gathering
/// sink, then GlobalIds::Decode over the gathered rows, each timed, with
/// the QueryStats phases as child spans. Returns the latency in ms; an
/// untraced call also sets `*cpu_ms`, when given, to the process's CPU
/// time over the same call (CpuMs()).
double RunOne(Database& db, PoolQuery& q, Tracer& tracer, Layers* layers,
              double* cpu_ms = nullptr) {
  if (!tracer.enabled()) {
    QueryStats stats;
    const double c0 = cpu_ms != nullptr ? CpuMs() : 0;
    auto t0 = std::chrono::steady_clock::now();
    ResultTable table = db.engine().ExecuteToTable(q.text, &stats);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    if (cpu_ms != nullptr) *cpu_ms = CpuMs() - c0;
    Check(q, table);
    return ms;
  }

  const uint64_t qid = tracer.NewQuery();
  TimeParseOnce(tracer, qid, q, layers);
  QueryStats stats;
  ResultTable table;
  std::vector<lbr::RawRow> raw;
  const double t0 = tracer.NowUs();
  db.engine().Execute(
      q.text, [&raw](const lbr::RawRow& row) { raw.push_back(row); }, &stats,
      nullptr, &table.var_names);
  const double t1 = tracer.NowUs();
  const lbr::GlobalIds ids = lbr::GlobalIds::FromDictionary(db.dict());
  table.rows.reserve(raw.size());
  for (const lbr::RawRow& row : raw) {
    std::vector<std::optional<lbr::Term>> decoded(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i] != lbr::kNullBinding) decoded[i] = ids.Decode(db.dict(), row[i]);
    }
    table.rows.push_back(std::move(decoded));
  }
  const double t2 = tracer.NowUs();

  const uint64_t span = tracer.Add("query", 0, qid, t0, t2 - t0);
  PhaseSpans(tracer, span, qid, t0, stats);
  tracer.Add("core.decode", span, qid, t1, t2 - t1);
  layers->AddStats(stats);
  layers->query_ms += (t2 - t0) / 1e3;
  layers->decode_ms += (t2 - t1) / 1e3;
  Check(q, table);
  return (t2 - t0) / 1e3;
}

/// Single-client closed loop: the next query goes out when the previous
/// answer is back, for `seconds` of wall time. The client moves to the next
/// CPU of `cpus` every w.queries_per_cpu queries.
void ClosedLoop(std::vector<Database*>& dbs, Workload& w, CpuRotation& cpus,
                double seconds, Tracer& tracer, Layers* layers, Phase& ph) {
  auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < seconds) {
    if (w.sent++ % w.queries_per_cpu == 0) cpus.Next();
    PoolQuery& q = w.pool[w.next()];
    ++ph.attempted;
    try {
      double ms = RunOne(*dbs[static_cast<size_t>(q.db)], q, tracer, layers);
      ph.Record(q.key, ms);
      ph.busy_s += ms / 1e3;
    } catch (const std::exception& e) {
      ph.Failed(e.what());
    }
  }
}

/// Records one round of queries into `ph`, times `scale`: `ms[k]`
/// (negative: failed) is the latency of pool query `round[k]` and
/// `busy_ms` the round's busy time.
void RecordRound(const Workload& w, const std::vector<uint32_t>& round,
                 const std::vector<double>& ms, double busy_ms, double scale,
                 Phase& ph) {
  for (size_t k = 0; k < round.size(); ++k) {
    if (ms[k] >= 0) ph.Record(w.pool[round[k]].key, ms[k] * scale);
  }
  ph.busy_s += busy_ms * scale / 1e3;
}

/// The reference's side of an untraced run (duet.h): the engine's wall
/// times, as measured and at the reference's nominal speed, and the
/// reference's times for each round.
struct RefSide {
  Phase measured, wall;
  std::vector<double> round_ms, round_cpu_ms;

  /// Records a round's wall times, measured right before or after the
  /// reference took `ref` for the same round: to `measured` as they are,
  /// and to `wall` times w.ref_round_ms / ref.wall_ms.
  void AddWall(const Workload& w, const std::vector<uint32_t>& round,
               const std::vector<double>& ms, double busy_ms,
               const RefTime& ref) {
    round_ms.push_back(ref.wall_ms);
    round_cpu_ms.push_back(ref.cpu_ms);
    RecordRound(w, round, ms, busy_ms, 1, measured);
    RecordRound(w, round, ms, busy_ms, w.ref_round_ms / ref.wall_ms, wall);
  }

  /// Notes the reference's medians and the wall-time figures.
  void Report(const Workload& w, const SetupTimes& st,
              perfbench::Report* rep) const {
    std::ostringstream notes;
    notes << "reference round ms: median wall " << Median(round_ms)
          << ", cpu " << Median(round_cpu_ms) << " over " << round_ms.size()
          << " rounds (nominal " << w.ref_round_ms
          << ")\nreference setup_s: median " << st.ref_s << " (nominal "
          << w.ref_setup_s << ")\nmeasured setup_s " << st.measured_s << " s";
    for (const auto& [name, ph] :
         {std::pair<const char*, const Phase*>{"measured wall", &measured},
          {"wall at nominal speed", &wall}}) {
      std::vector<double> lat;
      for (const Sample& s : ph->samples) lat.push_back(s.latency_ms);
      notes << "\n" << name << ": latency_p50_ms " << Percentile(lat, 50)
            << " latency_p99_ms " << Percentile(lat, 99) << " qps "
            << (ph->busy_s > 0 ? ph->completed / ph->busy_s : 0);
    }
    rep->Note(notes.str());
  }
};

/// The untraced single-client loop, with the reference engine beside it.
/// Each round of w.queries_per_cpu queries runs on the engine and on the
/// reference, one right after the other on the same CPU, the order
/// alternating from round to round. A query's latency in `ph` is the CPU
/// time it took (the engine answers a query on the calling thread), taken
/// to the reference's nominal speed with the reference's CPU time for the
/// round: other tasks' turns on the CPU stay out of both.
void DuetLoop(std::vector<Database*>& dbs, Workload& w, CpuRotation& cpus,
              Duet& duet, double seconds, Phase& ph, RefSide* ref_side) {
  Tracer off(false);
  std::vector<uint32_t> round(w.queries_per_cpu);
  std::vector<double> ms(round.size()), cpu(round.size());
  auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < seconds) {
    cpus.Next();
    for (uint32_t& i : round) i = static_cast<uint32_t>(w.next());
    const bool ref_first = (w.sent / round.size()) % 2 == 1;
    w.sent += round.size();
    RefTime ref = ref_first ? duet.RunRound(cpus.current(), round) : RefTime{};
    double busy = 0, cpu_busy = 0;
    for (size_t k = 0; k < round.size(); ++k) {
      PoolQuery& q = w.pool[round[k]];
      ++ph.attempted;
      try {
        ms[k] = RunOne(*dbs[static_cast<size_t>(q.db)], q, off, nullptr,
                       &cpu[k]);
        busy += ms[k];
        cpu_busy += cpu[k];
      } catch (const std::exception& e) {
        ph.Failed(e.what());
        ms[k] = cpu[k] = -1;
      }
    }
    if (!ref_first) ref = duet.RunRound(cpus.current(), round);
    RecordRound(w, round, cpu, cpu_busy, w.ref_round_ms / ref.cpu_ms, ph);
    ref_side->AddWall(w, round, ms, busy, ref);
  }
}

/// Batch closed loop: successive ExecuteBatch calls of kBatchSize queries
/// on the runner pool. A query's latency is its queue wait plus its
/// execution time (BatchResult exposes no per-query completion time, so
/// the decode of its rows inside the batch is not included). With a
/// `duet`, each batch also runs on the reference, right before or after,
/// and its wall times are reported at the reference's nominal speed, over
/// the reference's wall time for the batch (two runners share the CPUs, so
/// the process's CPU time is no query's latency).
void BatchLoop(Database& db, Workload& w, lbr::ThreadPool& runners,
               Duet* duet, double seconds, Tracer& tracer, Layers* layers,
               Phase& ph, RefSide* ref_side = nullptr) {
  lbr::BatchOptions options;
  options.pool = &runners;
  options.max_queued_queries = -1;  // unbounded: nothing is shed
  std::vector<uint32_t> idx(kBatchSize);
  std::vector<std::string> texts(kBatchSize);
  std::vector<double> lat(kBatchSize);
  auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < seconds) {
    for (size_t i = 0; i < kBatchSize; ++i) {
      idx[i] = static_cast<uint32_t>(w.next());
      texts[i] = w.pool[idx[i]].text;
    }
    const bool ref_first = (w.sent / kBatchSize) % 2 == 1;
    w.sent += kBatchSize;
    RefTime ref =
        duet != nullptr && ref_first ? duet->RunRound(-1, idx) : RefTime{};
    const double t0 = tracer.NowUs();
    auto c0 = std::chrono::steady_clock::now();
    std::vector<lbr::BatchResult> results = db.ExecuteBatch(texts, options);
    const double busy_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - c0)
                               .count();
    if (duet != nullptr && !ref_first) ref = duet->RunRound(-1, idx);
    const uint64_t batch_span =
        tracer.Add("batch", 0, 0, t0, tracer.NowUs() - t0);
    for (size_t i = 0; i < kBatchSize; ++i) {
      PoolQuery& q = w.pool[idx[i]];
      const lbr::BatchResult& r = results[i];
      ++ph.attempted;
      lat[i] = -1;
      if (!r.ok()) {
        ph.Failed(r.error);
        continue;
      }
      Check(q, r.table);
      const double wait_ms = r.queue_wait_sec * 1e3;
      const double ms = wait_ms + r.stats.t_total_sec * 1e3;
      lat[i] = ms;
      if (duet == nullptr) ph.Record(q.key, ms);
      if (tracer.enabled()) {
        const uint64_t qid = tracer.NewQuery();
        TimeParseOnce(tracer, qid, q, layers);
        const uint64_t span = tracer.Add("query", batch_span, qid, t0, ms * 1e3);
        tracer.Add("batch.queue_wait", span, qid, t0, wait_ms * 1e3);
        PhaseSpans(tracer, span, qid, t0 + wait_ms * 1e3, r.stats);
        layers->AddStats(r.stats);
        layers->query_ms += ms;
        layers->queue_ms += wait_ms;
        layers->queue_wait_ms.push_back(wait_ms);
      }
    }
    if (duet != nullptr) {
      RecordRound(w, idx, lat, busy_ms, w.ref_round_ms / ref.wall_ms, ph);
      ref_side->AddWall(w, idx, lat, busy_ms, ref);
    } else {
      ph.busy_s += busy_ms / 1e3;
    }
  }
}

// --- Reporting -----------------------------------------------------------------

/// Median latency per geomean group, then their geometric mean.
double GroupGeoMeanMs(const Phase& ph, size_t groups,
                      std::vector<double>* medians = nullptr) {
  std::vector<std::vector<double>> by_key(groups);
  for (const Sample& s : ph.samples) {
    by_key[static_cast<size_t>(s.key)].push_back(s.latency_ms);
  }
  std::vector<double> med;
  for (const auto& v : by_key) {
    if (!v.empty()) med.push_back(Median(v));
  }
  if (medians != nullptr) {
    medians->clear();
    for (const auto& v : by_key) medians->push_back(v.empty() ? 0 : Median(v));
  }
  return GeoMean(med);
}

void ReportEndToEnd(const Phase& ph, const Workload& w, const SetupTimes& st,
                    double peak_rss_mb, double ttfa_ms, Report* rep) {
  std::vector<double> lat;
  lat.reserve(ph.samples.size());
  for (const Sample& s : ph.samples) lat.push_back(s.latency_ms);
  const double qps = ph.busy_s > 0 ? ph.completed / ph.busy_s : 0;
  rep->Add("latency_p50_ms", Percentile(lat, 50), "ms");
  rep->Add("latency_p99_ms", Percentile(lat, 99), "ms");
  // A mean over the run, unlike the percentiles, follows a few rounds the
  // host disturbed; the median over the run's stretches does not.
  rep->Add("qps", ph.stretch_qps.empty() ? qps : Median(ph.stretch_qps),
           "1/s");
  rep->Add("setup_s", st.total_s, "s");
  rep->Add("peak_rss_mb", peak_rss_mb, "MiB");
  std::vector<double> medians;
  rep->Add("geomean_ms", GroupGeoMeanMs(ph, w.keys.size(), &medians), "ms");
  // Restarts are not taken to the reference's speed, so ttfa_ms drifts
  // with the host; it prints here without a bound and is a per-layer
  // metric of the traced run (README.md, Caveats).
  std::ostringstream notes;
  notes << "qps over the whole run " << qps << " 1/s\nttfa_ms " << ttfa_ms
        << " ms\nsamples " << ph.completed << " (p99 has "
        << ph.completed -
               static_cast<uint64_t>(std::ceil(0.99 * ph.completed))
        << " beyond it)\nfailed_frac "
        << (ph.attempted ? static_cast<double>(ph.failed) / ph.attempted : 0)
        << " ratio\nmedian ms per query group:";
  for (size_t k = 0; k < w.keys.size(); ++k) {
    notes << " " << w.keys[k] << "=" << medians[k];
  }
  rep->Note(notes.str());
  if (ph.completed < 1000) {
    std::cerr << "perfbench: only " << ph.completed
              << " samples; p99 has fewer than ten beyond it\n";
  }
}

/// Per-layer metrics every traced run prints (zero where a layer does not
/// run on the workload).
struct LayerExtras {
  double snapshot_open_ms = 0;
  uint64_t tp_hits = 0, tp_misses = 0, tp_contention = 0, tp_flight_waits = 0;
  uint64_t materializations = 0, spills = 0, prefetches = 0;
  double resident_mb = 0;
  double pairwise_geomean_ms = 0, speedup_geomean = 0;
};

void ReportLayers(const Layers& l, const SetupTimes& st, const LayerExtras& x,
                  double untraced_geomean, double traced_geomean,
                  double ttfa_ms, Report* rep) {
  auto per_query = [&l](double total) {
    return l.queries ? total / static_cast<double>(l.queries) : 0.0;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  rep->Add("ttfa_ms", ttfa_ms, "ms");
  rep->Add("rdf.parse_s", st.parse_s, "s");
  rep->Add("core.build_s", st.build_s, "s");
  rep->Add("core.snapshot_write_s", st.snapshot_write_s, "s");
  rep->Add("core.snapshot_open_ms", x.snapshot_open_ms, "ms");
  rep->Add("sparql.parse_us", Median(l.parse_us), "us");
  rep->Add("core.plan.ms", per_query(l.plan_ms), "ms");
  rep->Add("core.plan.cache_hit_ratio",
           ratio(l.plan_hits, l.plan_hits + l.plan_misses), "ratio");
  rep->Add("bitmat.load.ms", per_query(l.load_ms), "ms");
  rep->Add("bitmat.load.triples", per_query(l.initial_triples), "count");
  rep->Add("bitmat.tp_cache.hit_ratio",
           ratio(x.tp_hits, x.tp_hits + x.tp_misses), "ratio");
  rep->Add("bitmat.tp_cache.contention", x.tp_contention, "count");
  rep->Add("bitmat.tp_cache.flight_waits", x.tp_flight_waits, "count");
  rep->Add("core.prune.ms", per_query(l.prune_ms), "ms");
  rep->Add("core.prune.kept_ratio", ratio(l.after_prune, l.initial_triples),
           "ratio");
  rep->Add("core.join.ms", per_query(l.join_ms), "ms");
  rep->Add("core.join.triples_per_row", ratio(l.after_prune, l.rows), "ratio");
  rep->Add("core.join.null_row_share", ratio(l.null_rows, l.rows), "ratio");
  rep->Add("core.join.best_match_share", per_query(l.best_match), "ratio");
  rep->Add("core.decode.ms", per_query(l.decode_ms), "ms");
  rep->Add("core.decode.rows", per_query(l.rows), "count");
  rep->Add("bitmat.index.materializations", x.materializations, "count");
  rep->Add("bitmat.index.spills", x.spills, "count");
  rep->Add("bitmat.index.prefetches", x.prefetches, "count");
  rep->Add("bitmat.index.resident_mb", x.resident_mb, "MiB");
  rep->Add("batch.queue_wait_p50_ms", Percentile(l.queue_wait_ms, 50), "ms");
  rep->Add("batch.queue_wait_p99_ms", Percentile(l.queue_wait_ms, 99), "ms");
  rep->Add("baseline.pairwise_geomean_ms", x.pairwise_geomean_ms, "ms");
  rep->Add("baseline.lbr_speedup_geomean", x.speedup_geomean, "x");
  rep->Add("trace.query_ms", per_query(l.query_ms), "ms");
  // Share of the query spans' time that no child span covers: the
  // engine's entry and exit outside t_total_sec.
  const double covered = l.plan_ms + l.load_ms + l.prune_ms + l.join_ms +
                         l.decode_ms + l.queue_ms;
  rep->Add("trace.unattributed_share",
           ratio(l.query_ms - covered, l.query_ms), "ratio");
  rep->Add("trace.overhead_ratio", ratio(traced_geomean, untraced_geomean),
           "x");
}

void AddCommonContext(const Options& opt, const Workload& w, Report* rep) {
  long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  rep->Context("workload", JsonString(opt.workload));
  rep->Context("seed", std::to_string(opt.seed));
  rep->Context("seconds", std::to_string(opt.seconds));
  rep->Context("traced", opt.trace ? "true" : "false");
  rep->Context("scale", JsonString(opt.tiny ? "tiny" : "full"));
  rep->Context("nproc_online", std::to_string(nproc > 0 ? nproc : 1));
  rep->Context("hardware_threads",
               std::to_string(lbr::ThreadPool::HardwareThreads()));
  rep->Context("simd", JsonString(lbr::bitops::ActiveKernelName()));
  rep->Context("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  std::string triples = "{";
  for (size_t i = 0; i < w.sources.size(); ++i) {
    triples += (i ? ", " : "") + JsonString(w.sources[i].name) + ": " +
               std::to_string(w.sources[i].triples);
  }
  rep->Context("triples", triples + "}");
  rep->Context("distinct_queries", std::to_string(w.pool.size()));
}

/// Self-check digests: the generated datasets' bytes and the first
/// stretch of the query stream. Equal seeds must print equal digests.
void PrintDigests(Workload& w) {
  for (const Source& s : w.sources) {
    std::cout << "digest dataset " << s.name << " " << std::hex
              << FileDigest(s.nt_path) << std::dec << "\n";
  }
  uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < 4096; ++i) h = HashBytes(w.pool[w.next()].text, h);
  std::cout << "digest stream " << std::hex << h << std::dec << std::endl;
}

/// One restart: `open` the stored form, then answer `q`. Returns the time
/// to the first decoded answer in ms; appends the open's share to
/// `open_ms`.
double Restart(const std::function<Database()>& open, const PoolQuery& q,
               std::vector<double>* open_ms) {
  auto t0 = std::chrono::steady_clock::now();
  Database db = open();
  auto t1 = std::chrono::steady_clock::now();
  ResultTable table = db.engine().ExecuteToTable(q.text);
  auto t2 = std::chrono::steady_clock::now();
  Check(q, table);
  open_ms->push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  return std::chrono::duration<double, std::milli>(t2 - t0).count();
}

/// An untraced run's timed loop, cut into kReopens equal stretches with one
/// restart after each, so the restarts sample the same stretch of (drifting)
/// machine time as the queries rather than one moment after them. The
/// peak-RSS counter restarts with every stretch, keeping the restarts'
/// transient databases out of peak_rss_mb. Restarts are not timed queries.
/// Each stretch ends in `ph` (Phase::EndStretch).
void TimedStretches(double seconds, Phase& ph,
                    const std::function<void(double)>& stretch,
                    const std::function<double()>& restart, double* ttfa_ms,
                    double* peak_rss_mb) {
  std::vector<double> ttfa;
  *peak_rss_mb = 0;
  for (int i = 0; i < kReopens; ++i) {
    ResetPeakRss();
    stretch(seconds / kReopens);
    ph.EndStretch();
    *peak_rss_mb = std::max(*peak_rss_mb, PeakRssMb());
    ttfa.push_back(restart());
  }
  *ttfa_ms = Median(ttfa);
}

// --- Workloads -------------------------------------------------------------------

/// paper-mix and lubm-param: heap-built databases with default
/// EngineOptions (the paper's configuration, TP cache off), one client.
int RunSingleClient(const Options& opt, Workload w) {
  if (opt.digest) {
    PrintDigests(w);
    return 0;
  }
  Report rep;
  AddCommonContext(opt, w, &rep);
  // The reference engine's process is forked first, while this one has
  // no thread and no database. Traced runs report raw times only.
  std::unique_ptr<Duet> duet;
  if (!opt.trace) duet = std::make_unique<Duet>(DuetFor(w));
  CpuRotation cpus;
  rep.Context("client_cpus", std::to_string(cpus.cpus()));
  SetupTimes st;
  std::vector<Database> owned = Setup(opt, w.sources, EngineOptions{}, "",
                                      cpus, duet.get(), w.ref_setup_s, &st);
  std::vector<Database*> dbs;
  for (Database& db : owned) dbs.push_back(&db);

  const bool baseline = opt.trace && opt.workload == "paper-mix";
  ComputeOracle(opt, dbs, baseline ? kBaselineRuns : 1, &w.pool);

  // Warm-up: every distinct text once (warm caches and plan cache, as the
  // paper's warm-cache protocol), checked like every other answer.
  Tracer off(false);
  for (PoolQuery& q : w.pool) RunOne(*dbs[static_cast<size_t>(q.db)], q, off, nullptr);

  // A heap deployment restarts from its N-Triples file.
  const PoolQuery& first = w.pool[0];
  const std::string& nt_path =
      w.sources[static_cast<size_t>(first.db)].nt_path;
  std::vector<double> open_ms;
  auto restart = [&]() {
    return Restart([&]() { return Database::BuildFromNTriples(nt_path); },
                   first, &open_ms);
  };

  if (!opt.trace) {
    Phase ph;
    RefSide ref;
    double ttfa = 0, rss = 0;
    TimedStretches(
        opt.seconds, ph,
        [&](double s) { DuetLoop(dbs, w, cpus, *duet, s, ph, &ref); },
        restart, &ttfa, &rss);
    duet.reset();
    ReportEndToEnd(ph, w, st, rss, ttfa, &rep);
    ref.Report(w, st, &rep);
    if (!ph.first_error.empty()) rep.Note("first error: " + ph.first_error);
    rep.Print(ph.attempted, ph.failed);
    return 0;
  }

  Phase plain, traced;
  Tracer tracer(true);
  Layers layers;
  const double stretch = opt.seconds / (2 * kTraceRounds);
  for (int i = 0; i < kTraceRounds; ++i) {
    ClosedLoop(dbs, w, cpus, stretch, off, nullptr, plain);
    ClosedLoop(dbs, w, cpus, stretch, tracer, &layers, traced);
  }

  std::vector<double> lbr_medians;
  const double plain_geo = GroupGeoMeanMs(plain, w.keys.size(), &lbr_medians);
  LayerExtras x;
  if (baseline) {
    std::vector<double> pairwise(w.keys.size()), speedups;
    for (const PoolQuery& q : w.pool) {
      pairwise[static_cast<size_t>(q.key)] = q.pairwise_ms;
    }
    std::ostringstream os;
    os << "baseline per query (pairwise ms / LBR ms = speedup):";
    for (size_t k = 0; k < w.keys.size(); ++k) {
      double s = lbr_medians[k] > 0 ? pairwise[k] / lbr_medians[k] : 0;
      speedups.push_back(s);
      os << "\n  " << w.keys[k] << " " << pairwise[k] << " / "
         << lbr_medians[k] << " = " << s << "x";
    }
    rep.Note(os.str());
    x.pairwise_geomean_ms = GeoMean(pairwise);
    x.speedup_geomean = GeoMean(speedups);
  }
  std::vector<double> ttfa;
  for (int i = 0; i < kReopens; ++i) ttfa.push_back(restart());
  ReportLayers(layers, st, x, plain_geo,
               GroupGeoMeanMs(traced, w.keys.size()), Median(ttfa), &rep);
  tracer.Write(opt.trace_out, rep.ContextJson());
  rep.Print(plain.attempted + traced.attempted, plain.failed + traced.failed);
  return 0;
}

/// snapshot-batch: the larger LUBM saved as a snapshot, reopened under a
/// memory budget below its working set with the shared TP cache on, and
/// driven by fixed-size batches on a two-runner pool.
int RunSnapshotBatch(const Options& opt, Workload w) {
  if (opt.digest) {
    PrintDigests(w);
    return 0;
  }
  Report rep;
  AddCommonContext(opt, w, &rep);
  const std::string snap_path = opt.work_dir + "/lubm-large.snap";
  EngineOptions engine_options;
  engine_options.enable_tp_cache = true;

  long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const int runner_count =
      static_cast<int>(std::max(1L, std::min<long>(kBatchRunners, nproc)));

  // The reference deploys the same way in its own process (duet.h), forked
  // before this one makes any thread. Traced runs report raw times only.
  std::unique_ptr<Duet> duet;
  if (!opt.trace) {
    DuetOptions d = DuetFor(w);
    d.snapshot_path = opt.work_dir + "/lubm-large.ref.snap";
    d.batch_runners = runner_count;
    d.budget_divisor = kBudgetDivisor;
    duet = std::make_unique<Duet>(d);
  }
  SetupTimes st;
  std::vector<Database> heap;
  {
    // Pinned only for set-up: the runner threads made below inherit the
    // CPU set of the thread that makes them, so it is restored first.
    CpuRotation cpus;
    heap = Setup(opt, w.sources, engine_options, snap_path, cpus, duet.get(),
                 w.ref_setup_s, &st);
  }
  std::vector<Database*> heap_dbs = {&heap[0]};
  ComputeOracle(opt, heap_dbs, 1, &w.pool);
  heap.clear();

  // The working set: every distinct text once over an unbudgeted open.
  uint64_t working_set = 0;
  {
    Database db = Database::OpenSnapshot(snap_path, engine_options);
    Tracer off(false);
    for (PoolQuery& q : w.pool) RunOne(db, q, off, nullptr);
    working_set = db.index().snapshot_resident_bytes();
  }
  lbr::SnapshotOptions snap;
  snap.memory_budget_bytes = working_set / kBudgetDivisor + 1;

  rep.Context("runners", std::to_string(runner_count));
  rep.Context("batch_size", std::to_string(kBatchSize));
  rep.Context("working_set_bytes", std::to_string(working_set));
  rep.Context("snapshot_budget_bytes",
              std::to_string(snap.memory_budget_bytes));

  Database db = Database::OpenSnapshot(snap_path, engine_options, snap);
  lbr::ThreadPool runners(runner_count);
  Tracer off(false);
  // Warm-up: one untimed stretch of batches (checked like the rest).
  {
    Phase warm;
    BatchLoop(db, w, runners, nullptr, std::min(1.0, opt.seconds / 4), off,
              nullptr, warm);
  }

  // A snapshot deployment restarts by reopening the snapshot under the
  // same budget; its first answer is the paper's Q1 (pool[0]).
  std::vector<double> open_ms;
  auto restart = [&]() {
    return Restart(
        [&]() {
          return Database::OpenSnapshot(snap_path, engine_options, snap);
        },
        w.pool[0], &open_ms);
  };

  if (!opt.trace) {
    Phase ph;
    RefSide ref;
    double ttfa = 0, rss = 0;
    TimedStretches(
        opt.seconds, ph,
        [&](double s) {
          BatchLoop(db, w, runners, duet.get(), s, off, nullptr, ph, &ref);
        },
        restart, &ttfa, &rss);
    duet.reset();
    ReportEndToEnd(ph, w, st, rss, ttfa, &rep);
    ref.Report(w, st, &rep);
    if (!ph.first_error.empty()) rep.Note("first error: " + ph.first_error);
    rep.Print(ph.attempted, ph.failed);
    return 0;
  }

  Phase plain, traced;
  Tracer tracer(true);
  Layers layers;
  const lbr::TpCache& cache = db.engine().tp_cache();
  const lbr::TripleIndex& index = db.index();
  // Index- and cache-wide counter deltas over the traced stretches only:
  // summing per-query deltas would count concurrent traffic twice.
  auto counters = [&]() {
    return std::vector<uint64_t>{cache.hits(),
                                 cache.misses(),
                                 cache.lock_contention(),
                                 cache.single_flight_waits(),
                                 index.snapshot_materializations(),
                                 index.snapshot_spills(),
                                 index.snapshot_prefetches()};
  };
  std::vector<uint64_t> delta(counters().size(), 0);
  const double stretch = opt.seconds / (2 * kTraceRounds);
  for (int i = 0; i < kTraceRounds; ++i) {
    BatchLoop(db, w, runners, nullptr, stretch, off, nullptr, plain);
    const std::vector<uint64_t> before = counters();
    BatchLoop(db, w, runners, nullptr, stretch, tracer, &layers, traced);
    const std::vector<uint64_t> after = counters();
    for (size_t c = 0; c < delta.size(); ++c) delta[c] += after[c] - before[c];
  }
  LayerExtras x;
  x.tp_hits = delta[0];
  x.tp_misses = delta[1];
  x.tp_contention = delta[2];
  x.tp_flight_waits = delta[3];
  x.materializations = delta[4];
  x.spills = delta[5];
  x.prefetches = delta[6];
  x.resident_mb = index.snapshot_resident_bytes() / (1024.0 * 1024.0);
  std::vector<double> ttfa;
  for (int i = 0; i < kReopens; ++i) ttfa.push_back(restart());
  x.snapshot_open_ms = Median(open_ms);

  ReportLayers(layers, st, x, GroupGeoMeanMs(plain, w.keys.size()),
               GroupGeoMeanMs(traced, w.keys.size()), Median(ttfa), &rep);
  tracer.Write(opt.trace_out, rep.ContextJson());
  rep.Print(plain.attempted + traced.attempted, plain.failed + traced.failed);
  return 0;
}

}  // namespace

int RunWorkload(const Options& opt) {
  if (opt.workload == "paper-mix") return RunSingleClient(opt, PaperMix(opt));
  if (opt.workload == "lubm-param") return RunSingleClient(opt, LubmParam(opt));
  if (opt.workload == "snapshot-batch") {
    return RunSnapshotBatch(opt, SnapshotBatch(opt));
  }
  std::cerr << "perfbench: unknown workload " << opt.workload
            << " (paper-mix, lubm-param, snapshot-batch)\n";
  return 2;
}

}  // namespace perfbench
