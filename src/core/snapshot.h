#ifndef LBR_CORE_SNAPSHOT_H_
#define LBR_CORE_SNAPSHOT_H_

#include <cstdint>

namespace lbr {

/// Open-time knobs for a snapshot file (Database::OpenSnapshot; the file
/// protocol itself is in core/snapshot.cc, the image format in
/// bitmat/snapshot_format.h).
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
  /// LBR_SNAPSHOT_PARANOID environment variable, for built indexes too):
  /// slice materialization preads directory + extent bytes into buffers,
  /// verifies the copies and decodes rows that own their payload instead
  /// of borrowing mapped words — storage faults surface as structured
  /// errors, never a SIGBUS on a mapped access. Costs one payload copy per
  /// materialization (DESIGN.md §12).
  bool paranoid = false;
};

}  // namespace lbr

#endif  // LBR_CORE_SNAPSHOT_H_
