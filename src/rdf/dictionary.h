#ifndef LBR_RDF_DICTIONARY_H_
#define LBR_RDF_DICTIONARY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
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
/// A Dictionary is a read-only view over a snapshot's dict section
/// (DESIGN.md §11): the magic and the counts |Vso|, |Vs|, |Vp|, |Vo| (u32),
/// then every term as (u8 kind, u32 length, bytes) in the order Vso,
/// Vs \ Vso, Vo \ Vso, Vp, each class sorted by Term. A term's index in the
/// section is its GlobalIds global id, so decoding is an offset lookup and
/// a term lookup a binary search in at most two sorted ranges. The bytes
/// come from Graph::FromTriples or from an index image
/// (TripleIndex::ImageDictionary); copies share them.
class Dictionary {
 public:
  Dictionary();  ///< The dictionary of the empty graph.
  /// Views the dict section [data, data + size), which `owner` keeps alive.
  /// One linear pass records each term's offset and checks the lengths,
  /// kinds, counts and the strict order within each class; any failure
  /// throws SnapshotError(kCorrupt).
  Dictionary(std::shared_ptr<const void> owner, const uint8_t* data,
             uint64_t size);

  /// Writes and views the dict section of the four classes Vso, Vs \ Vso,
  /// Vo \ Vso and Vp, each sorted strictly ascending.
  static Dictionary FromSortedClasses(
      const std::vector<const Term*> (&classes)[4]);

  /// Encodes a term occurring at subject position. Returns nullopt if the
  /// term never occurs as a subject in the data.
  std::optional<uint32_t> SubjectId(const Term& t) const;
  /// Encodes a term occurring at predicate position.
  std::optional<uint32_t> PredicateId(const Term& t) const;
  /// Encodes a term occurring at object position.
  std::optional<uint32_t> ObjectId(const Term& t) const;

  /// Decodes the term at `index` in the section: the term whose GlobalIds
  /// global id is `index`. Throws std::out_of_range past the last term.
  Term TermAt(uint64_t index) const;
  /// Decodes a dimension-local ID, which must be below that dimension's
  /// size, back to its term.
  Term SubjectTerm(uint32_t id) const { return TermAt(id); }
  Term PredicateTerm(uint32_t id) const {
    return TermAt(predicate_base() + id);
  }
  Term ObjectTerm(uint32_t id) const {
    const uint64_t tail = uint64_t{num_subjects_} + id - num_common_;
    return TermAt(id < num_common_ ? id : tail);
  }

  /// Encodes a full triple. Throws std::invalid_argument when a term does
  /// not occur at its position.
  Triple Encode(const TermTriple& t) const;
  /// Decodes a triple back to string-level terms.
  TermTriple Decode(const Triple& t) const {
    return {SubjectTerm(t.s), PredicateTerm(t.p), ObjectTerm(t.o)};
  }

  /// The dict section bytes this view reads.
  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }

  /// |Vso|: values occurring as both subject and object. IDs below this
  /// bound are join-compatible across the S and O dimensions.
  uint32_t num_common() const { return num_common_; }
  /// |Vs|: size of the subject dimension.
  uint32_t num_subjects() const { return num_subjects_; }
  /// |Vp|: size of the predicate dimension.
  uint32_t num_predicates() const { return num_predicates_; }
  /// |Vo|: size of the object dimension.
  uint32_t num_objects() const { return num_objects_; }

 private:
  /// The sort key of the term at byte offset `at`; pairs order as
  /// Term::operator< does (kind, then unsigned bytes).
  using Key = std::pair<uint8_t, std::string_view>;
  Key KeyOf(uint64_t at) const;
  /// Binary-searches the sorted range [lo, hi) of the section for `t`;
  /// its id is its section index minus `base`.
  std::optional<uint32_t> Find(uint64_t lo, uint64_t hi, const Term& t,
                               uint64_t base) const;
  /// Section index of the first predicate: |Vs| + |Vo| - |Vso|.
  uint64_t predicate_base() const {
    return uint64_t{num_subjects_} + num_objects_ - num_common_;
  }

  std::shared_ptr<const void> owner_;
  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  uint32_t num_common_ = 0;
  uint32_t num_subjects_ = 0;
  uint32_t num_predicates_ = 0;
  uint32_t num_objects_ = 0;
  /// Byte offset of each term's kind byte, by section index.
  std::vector<uint64_t> offsets_;
};

}  // namespace lbr

#endif  // LBR_RDF_DICTIONARY_H_
