#ifndef PERFBENCH_REF_ENGINE_H_
#define PERFBENCH_REF_ENGINE_H_

// The reference engine: a frozen copy of the engine's sources, kept in
// perfbench/ref/ as they were when the benchmark was defined, compiled into
// its own library with its namespace renamed so it links beside the engine
// under test. Every round of queries runs on both, one right after the
// other, and the engine's times are reported at the reference's nominal
// speed (see duet.h). This header names no engine type, so it can be
// included beside either engine's headers.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class RefEngine {
 public:
  /// Builds one database per N-Triples file, default engine options.
  explicit RefEngine(const std::vector<std::string>& nt_paths);
  ~RefEngine();
  RefEngine(const RefEngine&) = delete;
  RefEngine& operator=(const RefEngine&) = delete;

  /// Builds the databases again, as the benchmark's set-up does, and when
  /// `snapshot_path` is not empty saves each one there as a snapshot.
  void Rebuild(const std::string& snapshot_path);

  /// Runs `text` on database `db` and decodes the answer, as
  /// Engine::ExecuteToTable does; returns the number of rows.
  size_t Run(size_t db, const std::string& text);

  /// Deploys database 0 as snapshot-batch does: saved to `snapshot_path`,
  /// reopened from it with the TP cache on under a budget of its working
  /// set (every text of `texts` once) over `budget_divisor`, and served by
  /// a pool of `runners` threads.
  void ServeSnapshot(const std::string& snapshot_path,
                     const std::vector<std::string>& texts,
                     uint64_t budget_divisor, int runners);

  /// One ExecuteBatch call of `texts` on the ServeSnapshot deployment;
  /// returns the number of rows.
  size_t RunBatch(const std::vector<std::string>& texts);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REF_ENGINE_H_
