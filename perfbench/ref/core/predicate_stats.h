#ifndef LBR_CORE_PREDICATE_STATS_H_
#define LBR_CORE_PREDICATE_STATS_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "bitmat/triple_index.h"
#include "rdf/dictionary.h"

namespace lbr {

/// Per-predicate cardinality metadata for one predicate slice of the index.
///
/// All figures derive from the "meta-information" the index already keeps
/// (Appendix D): the per-predicate triple counts and the condensed
/// non-empty-row Bitvectors of the S-O / O-S BitMats. Nothing here reads
/// row payload, so collecting the whole table is O(|Vp|) popcounts.
struct PredStat {
  uint64_t triples = 0;            ///< Triples with this predicate.
  uint32_t distinct_subjects = 0;  ///< Non-empty S-O rows (bound subjects).
  uint32_t distinct_objects = 0;   ///< Non-empty O-S rows (bound objects).
  /// Average set bits per non-empty row — the expected fold density when a
  /// TP over this predicate binds one side:
  ///   subject_fan_out ≈ |{o : (s,p,o)}| for a typical bound subject,
  ///   object_fan_in   ≈ |{s : (s,p,o)}| for a typical bound object.
  double subject_fan_out = 0;
  double object_fan_in = 0;
};

/// The load-time statistics table the cost planner and the plan cache's
/// compiled skeletons consume (DESIGN.md §10). Owned by Database and
/// collected once per index build/open; engines hold a const pointer.
class PredicateStats {
 public:
  PredicateStats() = default;

  /// Collects the table from index metadata alone (no payload scans).
  static PredicateStats Collect(const TripleIndex& index);

  uint32_t num_predicates() const {
    return static_cast<uint32_t>(preds_.size());
  }
  const PredStat& pred(uint32_t p) const { return preds_[p]; }

  uint64_t total_triples() const { return total_triples_; }
  uint32_t num_subjects() const { return num_subjects_; }
  uint32_t num_objects() const { return num_objects_; }

  /// Global densities, the fallback for variable-predicate patterns:
  /// expected triples carried by one subject / one object across all
  /// predicates.
  double triples_per_subject() const {
    return num_subjects_ > 0
               ? static_cast<double>(total_triples_) / num_subjects_
               : 0;
  }
  double triples_per_object() const {
    return num_objects_ > 0
               ? static_cast<double>(total_triples_) / num_objects_
               : 0;
  }

  /// Human-readable table of the `top_n` largest predicates (by triples),
  /// for the shell's `.predstats` view.
  std::string Summary(const Dictionary& dict, size_t top_n = 10) const;

  /// Binary serialization (the snapshot's stats section, DESIGN.md §11):
  /// persisting the table lets OpenSnapshot wire the cost planner without
  /// touching any row payload at open.
  void WriteTo(std::ostream* out) const;
  static PredicateStats ReadFrom(std::istream* in);

 private:
  std::vector<PredStat> preds_;
  uint64_t total_triples_ = 0;
  uint32_t num_subjects_ = 0;
  uint32_t num_objects_ = 0;
};

}  // namespace lbr

#endif  // LBR_CORE_PREDICATE_STATS_H_
