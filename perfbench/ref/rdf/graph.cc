#include "rdf/graph.h"

#include <algorithm>

namespace lbr {

Graph Graph::FromTriples(const std::vector<TermTriple>& triples) {
  Graph g;
  for (const TermTriple& t : triples) g.dict_.Add(t);
  g.dict_.Finalize();
  g.triples_.reserve(triples.size());
  for (const TermTriple& t : triples) g.triples_.push_back(g.dict_.Encode(t));
  std::sort(g.triples_.begin(), g.triples_.end());
  g.triples_.erase(std::unique(g.triples_.begin(), g.triples_.end()),
                   g.triples_.end());
  return g;
}

Graph::Stats Graph::ComputeStats() const {
  Stats s;
  s.num_triples = triples_.size();
  s.num_subjects = dict_.num_subjects();
  s.num_predicates = dict_.num_predicates();
  s.num_objects = dict_.num_objects();
  s.num_common = dict_.num_common();
  return s;
}

}  // namespace lbr
