#ifndef LBR_RDF_GRAPH_H_
#define LBR_RDF_GRAPH_H_

#include <cstdint>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace lbr {

/// An in-memory RDF graph: its Dictionary (the dict section bytes the index
/// image stores unchanged) plus the dictionary-encoded triple set,
/// deduplicated and sorted in (S, P, O) order.
///
/// Graph is the hand-off point between the data-producing side (N-Triples
/// parsing, workload generators) and the index builder (bitmat::TripleIndex).
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from string-level triples. Duplicates are removed.
  /// One hashing pass assigns provisional ids; sorting each term class once
  /// yields the final ids and the dict section.
  static Graph FromTriples(const std::vector<TermTriple>& triples);

  const Dictionary& dict() const { return dict_; }
  const std::vector<Triple>& triples() const { return triples_; }

  size_t num_triples() const { return triples_.size(); }

 private:
  Dictionary dict_;
  std::vector<Triple> triples_;
};

}  // namespace lbr

#endif  // LBR_RDF_GRAPH_H_
