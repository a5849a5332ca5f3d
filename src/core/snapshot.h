#ifndef LBR_CORE_SNAPSHOT_H_
#define LBR_CORE_SNAPSHOT_H_

#include <memory>
#include <string>

#include "bitmat/snapshot_format.h"
#include "bitmat/triple_index.h"
#include "rdf/dictionary.h"

namespace lbr {

/// Open-time knobs for a mapped snapshot (Database::OpenSnapshot).
struct SnapshotOptions {
  /// Resident-heap budget in bytes for materialized slices + TP cache
  /// entries (one global meter, DESIGN.md §11); 0 = unlimited. Exceeding
  /// the budget spills cold predicates back to their mapped extents — it
  /// never aborts a query.
  uint64_t memory_budget_bytes = 0;
  /// Verify every slice's directory + extent checksum at open (one
  /// sequential pass over the whole file). Off by default: the lazy
  /// contract verifies each slice on first materialization instead, so
  /// open cost stays O(metadata).
  bool verify_extents = false;
  /// Paranoid reads for unreliable storage (also armed by the
  /// LBR_SNAPSHOT_PARANOID environment variable): slice materialization
  /// preads directory + extent bytes into heap buffers and verifies/serves
  /// the copies instead of borrowing mapped words — storage faults surface
  /// as structured errors, never a SIGBUS on a mapped access. Costs one
  /// extent copy per materialization (DESIGN.md §12).
  bool paranoid = false;
};

/// Writer/reader of the page-organized snapshot format (DESIGN.md §11).
/// Friend of TripleIndex: the writer walks slices (materializing them when
/// saving from a mapped index); the reader installs the mmap backing.
class SnapshotIO {
 public:
  /// Serializes dictionary + index as one page-organized file,
  /// crash-safely: the image is built in a same-directory temp file,
  /// fsync'd, atomically renamed over `path`, and the directory fsync'd —
  /// an interrupted save at any point leaves `path` pointing at a
  /// complete, openable snapshot (the previous one before the rename
  /// lands, the new one after) and never litters a temp file. Throws
  /// SnapshotError(kIo) with errno detail on filesystem failures. Fault
  /// sites: snapshot.write.{create,write,fsync,rename,dirsync}.
  static void Write(const Dictionary& dict, const TripleIndex& index,
                    const std::string& path);

  struct OpenResult {
    std::unique_ptr<Dictionary> dict;
    std::unique_ptr<TripleIndex> index;
  };

  /// Maps `path` and decodes the eager sections (header, dict, meta); row payload stays on disk until touched. Throws SnapshotError
  /// with a structured code on any malformed input — nothing is returned
  /// partially constructed. The memory budget in `options` is NOT applied
  /// here (Database wires it together with the TpCache meter).
  static OpenResult Open(const std::string& path,
                         const SnapshotOptions& options);
};

}  // namespace lbr

#endif  // LBR_CORE_SNAPSHOT_H_
