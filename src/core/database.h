#ifndef LBR_CORE_DATABASE_H_
#define LBR_CORE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "bitmat/triple_index.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "rdf/graph.h"

namespace lbr {

/// The top-level deployment facade: a dictionary + BitMat index pair that
/// can be built from triples, saved as a single snapshot file, and reopened
/// in a fresh process — no re-parsing of the source data required.
///
/// Typical flow:
///   auto db = Database::Build(triples);                // ingest
///   db.SaveSnapshot("movies.lbr");                     // persist
///   ...
///   auto db = Database::OpenSnapshot("movies.lbr");    // later / elsewhere
///   db.engine().ExecuteToTable("SELECT ...");
class Database {
 public:
  /// Ingests string-level triples (deduplicated) and builds the index.
  static Database Build(const std::vector<TermTriple>& triples,
                        EngineOptions options = {});

  /// Builds from an N-Triples file.
  static Database BuildFromNTriples(const std::string& path,
                                    EngineOptions options = {});

  /// Saves the database as a page-organized mmap-ready snapshot
  /// (DESIGN.md §11): dictionary + row directories + page-aligned
  /// payload extents, all checksummed. The index already is that image
  /// (built or opened), so saving re-checks its dict section and slices (a
  /// damaged image throws SnapshotError(kChecksum) and writes nothing) and
  /// copies it byte for byte. Crash-safe (DESIGN.md §12): the bytes go to a
  /// same-directory temp file, which is fsync'd, renamed over `path`, and
  /// the directory fsync'd, so `path` always holds a complete snapshot and
  /// no temp file is left behind. Throws SnapshotError(kIo) with errno
  /// detail on filesystem failures. Fault sites:
  /// snapshot.write.{create,write,fsync,rename,dirsync}.
  void SaveSnapshot(const std::string& path) const;

  /// Opens a snapshot written by SaveSnapshot: the file is mapped, only
  /// metadata is decoded eagerly, and predicate slices materialize lazily
  /// on first touch — the first query pays only for the predicates it
  /// uses. `snap.memory_budget_bytes` bounds the resident heap of
  /// materialized slices plus TP-cache entries under one shared meter;
  /// exceeding it spills cold predicates back to their mapped extents.
  /// Throws SnapshotError (fail-closed) on any malformed input.
  static Database OpenSnapshot(const std::string& path,
                               EngineOptions options = {},
                               SnapshotOptions snap = {});

  const Dictionary& dict() const { return *dict_; }
  const TripleIndex& index() const { return *index_; }
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }

  /// Fans a batch of SPARQL queries across `pool` (null = serial), one
  /// engine per pool slot, sharing this database's index and the main
  /// engine's TP cache — so an interactive session and a batch run warm
  /// the same cache. Per-query failures land in BatchResult::error.
  std::vector<BatchResult> ExecuteBatch(const std::vector<std::string>& queries,
                                        ThreadPool* pool = nullptr);

  /// The admission-controlled form: like above but honoring the lifecycle
  /// and admission fields of `options` (max concurrent, bounded queue,
  /// per-query timeout and memory budget — DESIGN.md §9). The engine
  /// configuration and shared cache still come from this database;
  /// `options.engine` and `options.shared_cache` are overwritten.
  std::vector<BatchResult> ExecuteBatch(const std::vector<std::string>& queries,
                                        BatchOptions options);

  /// Integrity report from VerifySnapshot (the shell's `.verify`).
  struct SnapshotVerifyReport {
    uint32_t num_predicates = 0;
    /// The dict section no longer matches its checksum.
    bool dict_corrupt = false;
    /// Predicates whose directory/extent checksums mismatch on disk now.
    std::vector<uint32_t> corrupt;
    /// Predicates quarantined by an earlier materialization failure
    /// (degraded mode, DESIGN.md §12).
    std::vector<uint32_t> quarantined;
    bool ok() const {
      return !dict_corrupt && corrupt.empty() && quarantined.empty();
    }
  };

  /// Re-checks the dict section's and every slice's checksums against the
  /// mapped bytes (without materializing) and reports quarantined
  /// predicates. Built and opened databases are checked alike.
  SnapshotVerifyReport VerifySnapshot() const;

  uint64_t num_triples() const { return index_->num_triples(); }

 private:
  Database() = default;

  // Heap-held so Database stays movable while Engine keeps stable pointers.
  std::unique_ptr<Dictionary> dict_;
  std::unique_ptr<TripleIndex> index_;
  /// The shared memory meter (opened snapshots with a budget): charged by
  /// the index's materialized slices and the TP cache's entries, drained
  /// by their spill passes. Budget stays 0 — it is an accountant, never an
  /// aborter.
  std::unique_ptr<QueryControl> store_meter_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace lbr

#endif  // LBR_CORE_DATABASE_H_
