#include "core/database.h"

#include <fstream>
#include <stdexcept>

#include "rdf/ntriples.h"

namespace lbr {

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
  // Batch workers share the interactive engine's plan cache, so shapes
  // warmed by either side serve the other.
  options.engine.plan_cache = engine_->shared_plan_cache();
  return Engine::ExecuteBatch(*index_, *dict_, queries, options);
}

Database Database::Build(const std::vector<TermTriple>& triples,
                         EngineOptions options) {
  Database db;
  // The graph dies here: the index is the store, and the dictionary is the
  // image's dict section, read the way OpenSnapshot reads it.
  db.index_ = std::make_unique<TripleIndex>(
      TripleIndex::Build(Graph::FromTriples(triples)));
  db.dict_ = std::make_unique<Dictionary>(db.index_->ImageDictionary());
  db.engine_ =
      std::make_unique<Engine>(db.index_.get(), db.dict_.get(), options);
  return db;
}

Database Database::BuildFromNTriples(const std::string& path,
                                     EngineOptions options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Database: cannot open " + path);
  return Build(NTriples::ParseStream(&in), options);
}

Database::SnapshotVerifyReport Database::VerifySnapshot() const {
  SnapshotVerifyReport report;
  report.num_predicates = index_->num_predicates();
  report.dict_corrupt = !index_->DictChecksumMatches();
  index_->VerifySlices(&report.corrupt, &report.quarantined);
  return report;
}

}  // namespace lbr
