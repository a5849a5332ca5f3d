// Compiled only into the reference library: "core/database.h" here is
// perfbench/ref/core/database.h, and `lbr` is renamed on the command line
// (perfbench/CMakeLists.txt).

#include "ref_engine.h"

#include <stdexcept>

#include "core/database.h"
#include "util/thread_pool.h"

namespace perfbench {

struct RefEngine::Impl {
  std::vector<std::string> nt_paths;
  std::vector<lbr::Database> dbs;
  /// The ServeSnapshot deployment.
  std::unique_ptr<lbr::Database> served;
  std::unique_ptr<lbr::ThreadPool> runners;
};

RefEngine::RefEngine(const std::vector<std::string>& nt_paths)
    : impl_(std::make_unique<Impl>()) {
  impl_->nt_paths = nt_paths;
  Rebuild("");
}

RefEngine::~RefEngine() = default;

void RefEngine::Rebuild(const std::string& snapshot_path) {
  impl_->dbs.clear();
  for (const std::string& path : impl_->nt_paths) {
    impl_->dbs.push_back(lbr::Database::BuildFromNTriples(path));
    if (!snapshot_path.empty()) impl_->dbs.back().SaveSnapshot(snapshot_path);
  }
}

size_t RefEngine::Run(size_t db, const std::string& text) {
  return impl_->dbs.at(db).engine().ExecuteToTable(text).rows.size();
}

void RefEngine::ServeSnapshot(const std::string& snapshot_path,
                              const std::vector<std::string>& texts,
                              uint64_t budget_divisor, int runners) {
  impl_->dbs.at(0).SaveSnapshot(snapshot_path);
  impl_->dbs.clear();
  lbr::EngineOptions options;
  options.enable_tp_cache = true;
  uint64_t working_set = 0;
  {
    lbr::Database db = lbr::Database::OpenSnapshot(snapshot_path, options);
    for (const std::string& text : texts) db.engine().ExecuteToTable(text);
    working_set = db.index().snapshot_resident_bytes();
  }
  lbr::SnapshotOptions snap;
  snap.memory_budget_bytes = working_set / budget_divisor + 1;
  impl_->served = std::make_unique<lbr::Database>(
      lbr::Database::OpenSnapshot(snapshot_path, options, snap));
  impl_->runners = std::make_unique<lbr::ThreadPool>(runners);
}

size_t RefEngine::RunBatch(const std::vector<std::string>& texts) {
  lbr::BatchOptions options;
  options.pool = impl_->runners.get();
  options.max_queued_queries = -1;
  size_t rows = 0;
  for (const lbr::BatchResult& r : impl_->served->ExecuteBatch(texts, options)) {
    if (!r.ok()) throw std::runtime_error(r.error);
    rows += r.table.rows.size();
  }
  return rows;
}

}  // namespace perfbench
