#ifndef LBR_RDF_DICTIONARY_H_
#define LBR_RDF_DICTIONARY_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"

namespace lbr {

/// Dictionary mapping string-level terms to the bitcube coordinates of
/// Appendix D.
///
/// Let Vs, Vp, Vo be the sets of distinct subject, predicate, and object
/// values and Vso = Vs ∩ Vo. IDs are assigned as:
///   - Vso        -> 0 .. |Vso|-1        (same ID on S and O dimension)
///   - Vs \ Vso   -> |Vso| .. |Vs|-1     (subject dimension only)
///   - Vo \ Vso   -> |Vso| .. |Vo|-1     (object dimension only)
///   - Vp         -> 0 .. |Vp|-1         (predicate dimension)
///
/// The shared low range is what makes S-O joins bitwise intersections: a
/// value can participate in an S-O join only if it occurs on both positions,
/// i.e. its ID is < |Vso|. Subject-only and object-only IDs overlap
/// numerically but never alias in a correct engine because any cross-
/// dimension intersection is truncated at |Vso| (Bitvector::TruncateBitsFrom).
///
/// Construction is two-phase: feed every triple to `Add`, then call
/// `Finalize` once; lookups and encoding are valid only after finalization.
class Dictionary {
 public:
  Dictionary() = default;

  /// Phase 1: registers the terms of one triple.
  void Add(const TermTriple& t);

  /// Phase 2: assigns IDs. Must be called exactly once, after all Add calls.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// Encodes a term occurring at subject position. Returns nullopt if the
  /// term never occurs as a subject in the data.
  std::optional<uint32_t> SubjectId(const Term& t) const;
  /// Encodes a term occurring at predicate position.
  std::optional<uint32_t> PredicateId(const Term& t) const;
  /// Encodes a term occurring at object position.
  std::optional<uint32_t> ObjectId(const Term& t) const;

  /// Decodes a subject-dimension ID back to its term.
  const Term& SubjectTerm(uint32_t id) const { return subject_terms_.at(id); }
  const Term& PredicateTerm(uint32_t id) const {
    return predicate_terms_.at(id);
  }
  const Term& ObjectTerm(uint32_t id) const { return object_terms_.at(id); }

  /// Encodes a full triple. Precondition: all three terms were Added.
  Triple Encode(const TermTriple& t) const;
  /// Decodes a triple back to string-level terms.
  TermTriple Decode(const Triple& t) const;

  /// Binary serialization of a finalized dictionary (terms + ID layout).
  /// Together with TripleIndex persistence this makes a saved database
  /// usable across processes without re-reading the source triples.
  void WriteTo(std::ostream* out) const;
  static Dictionary ReadFrom(std::istream* in);

  /// |Vso|: values occurring as both subject and object. IDs below this
  /// bound are join-compatible across the S and O dimensions.
  uint32_t num_common() const { return num_common_; }
  /// |Vs|: size of the subject dimension.
  uint32_t num_subjects() const {
    return static_cast<uint32_t>(subject_terms_.size());
  }
  /// |Vp|: size of the predicate dimension.
  uint32_t num_predicates() const {
    return static_cast<uint32_t>(predicate_terms_.size());
  }
  /// |Vo|: size of the object dimension.
  uint32_t num_objects() const {
    return static_cast<uint32_t>(object_terms_.size());
  }

 private:
  struct TermHash {
    size_t operator()(const Term& t) const {
      return std::hash<std::string>()(t.value) * 31 +
             static_cast<size_t>(t.kind);
    }
  };
  using TermMap = std::unordered_map<Term, uint32_t, TermHash>;

  bool finalized_ = false;
  uint32_t num_common_ = 0;

  // Pre-finalization scratch: which positions each term occurs in.
  std::unordered_map<Term, uint8_t, TermHash> seen_;  // bit0=S bit1=O bit2=P

  TermMap subject_ids_;
  TermMap predicate_ids_;
  TermMap object_ids_;
  std::vector<Term> subject_terms_;
  std::vector<Term> predicate_terms_;
  std::vector<Term> object_terms_;
};

}  // namespace lbr

#endif  // LBR_RDF_DICTIONARY_H_
