#include "rdf/graph.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace lbr {

Graph Graph::FromTriples(const std::vector<TermTriple>& triples) {
  // One hashing pass: each distinct term gets a provisional id and the
  // positions it occurs at (bit0 = S, bit1 = O, bit2 = P), and the triples
  // are encoded in provisional ids. Keys view the input's strings.
  std::unordered_map<std::string_view, uint32_t> ids[3];  // by TermKind
  std::vector<std::pair<const Term*, uint8_t>> terms;      // with positions
  std::vector<Triple> encoded;
  encoded.reserve(triples.size());
  auto intern = [&](const Term& t, uint8_t position) {
    auto [it, inserted] = ids[static_cast<int>(t.kind)].try_emplace(
        t.value, static_cast<uint32_t>(terms.size()));
    if (inserted) terms.emplace_back(&t, 0);
    terms[it->second].second |= position;
    return it->second;
  };
  for (const TermTriple& t : triples) {
    const uint32_t s = intern(t.s, 1);
    const uint32_t p = intern(t.p, 4);
    encoded.emplace_back(s, p, intern(t.o, 2));
  }
  for (auto& map : ids) map = {};

  // Sort each class (Vso, Vs \ Vso, Vo \ Vso, Vp) once, so equal datasets
  // get equal ids in any insertion order; ranks are the final ids.
  std::vector<uint32_t> classes[4];
  for (uint32_t id = 0; id < terms.size(); ++id) {
    const int entity = terms[id].second & 3;  // 1 = S only, 2 = O only
    if (entity != 0) classes[entity == 3 ? 0 : entity].push_back(id);
    if (terms[id].second & 4) classes[3].push_back(id);
  }
  auto by_term = [&](uint32_t a, uint32_t b) {
    return *terms[a].first < *terms[b].first;
  };
  std::vector<const Term*> sorted[4];
  std::vector<uint32_t> entity_id(terms.size()), predicate_id(terms.size());
  for (int c = 0; c < 4; ++c) {
    std::sort(classes[c].begin(), classes[c].end(), by_term);
    // Subject-only and object-only ids both continue after Vso.
    size_t next = c == 1 || c == 2 ? classes[0].size() : 0;
    for (uint32_t id : classes[c]) {
      (c == 3 ? predicate_id : entity_id)[id] = static_cast<uint32_t>(next++);
      sorted[c].push_back(terms[id].first);
    }
  }

  Graph g;
  g.dict_ = Dictionary::FromSortedClasses(sorted);
  for (Triple& t : encoded) {
    t = Triple(entity_id[t.s], predicate_id[t.p], entity_id[t.o]);
  }
  std::sort(encoded.begin(), encoded.end());
  encoded.erase(std::unique(encoded.begin(), encoded.end()), encoded.end());
  g.triples_ = std::move(encoded);
  return g;
}

}  // namespace lbr
