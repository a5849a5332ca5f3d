#ifndef LBR_CORE_GLOBAL_IDS_H_
#define LBR_CORE_GLOBAL_IDS_H_

#include <cstdint>
#include <optional>

#include "bitmat/tp_loader.h"
#include "rdf/dictionary.h"

namespace lbr {

/// Canonical value space for variable bindings during join processing.
///
/// Dimension-local IDs are ambiguous across dimensions (a subject-only ID
/// and an object-only ID can share a number; Appendix D). GlobalIds maps
/// every (dimension kind, local id) pair to a unique 64-bit value:
///   subjects            -> [0, |Vs|)            (Vso range first)
///   object-only terms   -> [|Vs|, |Vs|+|Vo|-|Vso|)
///   predicates          -> [|Vs|+|Vo|-|Vso|, ... +|Vp|)
/// so bindings can be compared across TPs regardless of which dimension
/// produced them.
struct GlobalIds {
  uint32_t num_subjects = 0;
  uint32_t num_objects = 0;
  uint32_t num_common = 0;
  uint32_t num_predicates = 0;

  static GlobalIds FromDictionary(const Dictionary& dict) {
    GlobalIds g;
    g.num_subjects = dict.num_subjects();
    g.num_objects = dict.num_objects();
    g.num_common = dict.num_common();
    g.num_predicates = dict.num_predicates();
    return g;
  }

  uint64_t predicate_base() const {
    return static_cast<uint64_t>(num_subjects) + num_objects - num_common;
  }

  /// Lifts a dimension-local ID into the global space.
  uint64_t ToGlobal(DomainKind kind, uint32_t local) const {
    switch (kind) {
      case DomainKind::kSubject:
        return local;
      case DomainKind::kObject:
        return local < num_common
                   ? local
                   : static_cast<uint64_t>(num_subjects) + (local - num_common);
      case DomainKind::kPredicate:
        return predicate_base() + local;
      case DomainKind::kUnit:
        return 0;
    }
    return 0;
  }

  /// Lowers a global value into a dimension's local ID space; nullopt when
  /// the term does not occur on that dimension (no triple can match).
  std::optional<uint32_t> ToLocal(DomainKind kind, uint64_t global) const {
    switch (kind) {
      case DomainKind::kSubject:
        if (global < num_subjects) return static_cast<uint32_t>(global);
        return std::nullopt;
      case DomainKind::kObject:
        if (global < num_common) return static_cast<uint32_t>(global);
        if (global >= num_subjects && global < predicate_base()) {
          return static_cast<uint32_t>(num_common + (global - num_subjects));
        }
        return std::nullopt;
      case DomainKind::kPredicate:
        if (global >= predicate_base() &&
            global < predicate_base() + num_predicates) {
          return static_cast<uint32_t>(global - predicate_base());
        }
        return std::nullopt;
      case DomainKind::kUnit:
        return std::nullopt;
    }
    return std::nullopt;
  }

  /// Decodes a global value back to its RDF term.
  Term Decode(const Dictionary& dict, uint64_t global) const {
    if (global < num_subjects) {
      return dict.SubjectTerm(static_cast<uint32_t>(global));
    }
    if (global < predicate_base()) {
      return dict.ObjectTerm(
          static_cast<uint32_t>(num_common + (global - num_subjects)));
    }
    return dict.PredicateTerm(
        static_cast<uint32_t>(global - predicate_base()));
  }
};

}  // namespace lbr

#endif  // LBR_CORE_GLOBAL_IDS_H_
