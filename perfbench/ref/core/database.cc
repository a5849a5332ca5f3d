#include "core/database.h"

#include <fstream>
#include <stdexcept>

#include "rdf/ntriples.h"

namespace lbr {

namespace {
constexpr char kDbMagic[8] = {'L', 'B', 'R', 'D', 'B', 'F', '0', '1'};
}  // namespace

void Database::InitEngine(EngineOptions options) {
  // Load-time stats pass: one popcount sweep over the index metadata,
  // wired into the engine so planner = kCost never collects privately.
  stats_ = std::make_unique<PredicateStats>(PredicateStats::Collect(*index_));
  options.predicate_stats = stats_.get();
  engine_ = std::make_unique<Engine>(index_.get(), dict_.get(), options);
}

std::vector<BatchResult> Database::ExecuteBatch(
    const std::vector<std::string>& queries, ThreadPool* pool) {
  BatchOptions options;
  options.pool = pool;
  return ExecuteBatch(queries, std::move(options));
}

std::vector<BatchResult> Database::ExecuteBatch(
    const std::vector<std::string>& queries, BatchOptions options) {
  options.engine = engine_->options();
  options.shared_cache = engine_->shared_tp_cache();
  // Batch workers share the interactive engine's plan cache and stats
  // table, so shapes warmed by either side serve the other.
  options.engine.plan_cache = engine_->shared_plan_cache();
  options.engine.predicate_stats = stats_.get();
  return Engine::ExecuteBatch(*index_, *dict_, queries, options);
}

Database Database::Build(const std::vector<TermTriple>& triples,
                         EngineOptions options) {
  Graph graph = Graph::FromTriples(triples);
  Database db;
  // Copy the finalized dictionary out of the graph; the triple list itself
  // is not retained (the index is the store).
  db.dict_ = std::make_unique<Dictionary>(graph.dict());
  db.index_ = std::make_unique<TripleIndex>(TripleIndex::Build(graph));
  db.InitEngine(options);
  return db;
}

Database Database::BuildFromNTriples(const std::string& path,
                                     EngineOptions options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Database: cannot open " + path);
  return Build(NTriples::ParseStream(&in), options);
}

void Database::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("Database: cannot open " + path);
  out.write(kDbMagic, sizeof(kDbMagic));
  dict_->WriteTo(&out);
  index_->WriteTo(&out);
  if (!out) throw std::runtime_error("Database: write failed for " + path);
}

Database Database::Open(const std::string& path, EngineOptions options) {
  // Magic sniff: snapshot files dispatch to the mapped opener so existing
  // Open() call sites (the shell, tools) transparently gain lazy loading.
  if (SnapshotIO::SniffMagic(path)) {
    return OpenSnapshot(path, std::move(options));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("Database: cannot open " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!std::equal(magic, magic + 8, kDbMagic)) {
    throw std::runtime_error("Database: " + path + " is not an LBR database");
  }
  Database db;
  db.dict_ = std::make_unique<Dictionary>(Dictionary::ReadFrom(&in));
  db.index_ = std::make_unique<TripleIndex>(TripleIndex::ReadFrom(&in));
  if (!in) throw std::runtime_error("Database: truncated file " + path);
  db.InitEngine(options);
  return db;
}

void Database::SaveSnapshot(const std::string& path) const {
  SnapshotIO::Write(*dict_, *index_, *stats_, path);
}

Database::SnapshotVerifyReport Database::VerifySnapshot() const {
  SnapshotVerifyReport report;
  report.mapped = index_->mapped();
  report.num_predicates = index_->num_predicates();
  if (report.mapped) {
    index_->VerifySlices(&report.corrupt, &report.quarantined);
  }
  return report;
}

Database Database::OpenSnapshot(const std::string& path, EngineOptions options,
                                SnapshotOptions snap) {
  SnapshotIO::OpenResult opened = SnapshotIO::Open(path, snap);
  Database db;
  db.dict_ = std::move(opened.dict);
  db.index_ = std::move(opened.index);
  db.stats_ = std::move(opened.stats);

  options.predicate_stats = db.stats_.get();
  options.snapshot_prefetch = snap.prefetch;
  db.engine_ = std::make_unique<Engine>(db.index_.get(), db.dict_.get(),
                                        options);
  if (snap.memory_budget_bytes > 0) {
    // One meter, two tiers: materialized index slices and TP-cache entries
    // charge the same account; the index's spill pass drains cache entries
    // first (rebuildable from slices), then its own cold slices
    // (rebuildable from the map).
    db.store_meter_ = std::make_unique<QueryControl>();
    db.index_->SetMemoryBudget(snap.memory_budget_bytes,
                               db.store_meter_.get());
    std::shared_ptr<TpCache> cache = db.engine_->shared_tp_cache();
    cache->SetMemoryAccounting(db.store_meter_.get(),
                               snap.memory_budget_bytes);
    std::weak_ptr<TpCache> weak_cache = cache;
    db.index_->SetSpillHook([weak_cache]() -> uint64_t {
      std::shared_ptr<TpCache> c = weak_cache.lock();
      return c != nullptr ? c->SpillToFit() : 0;
    });
  }
  return db;
}

}  // namespace lbr
