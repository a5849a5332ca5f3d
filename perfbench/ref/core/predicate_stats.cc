#include "core/predicate_stats.h"

#include <algorithm>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace lbr {

PredicateStats PredicateStats::Collect(const TripleIndex& index) {
  PredicateStats stats;
  stats.num_subjects_ = index.num_subjects();
  stats.num_objects_ = index.num_objects();
  stats.total_triples_ = index.num_triples();
  stats.preds_.resize(index.num_predicates());
  for (uint32_t p = 0; p < index.num_predicates(); ++p) {
    PredStat& st = stats.preds_[p];
    st.triples = index.PredicateCardinality(p);
    st.distinct_subjects =
        static_cast<uint32_t>(index.SubjectsOf(p).Count());
    st.distinct_objects = static_cast<uint32_t>(index.ObjectsOf(p).Count());
    st.subject_fan_out = st.distinct_subjects > 0
                             ? static_cast<double>(st.triples) /
                                   st.distinct_subjects
                             : 0;
    st.object_fan_in = st.distinct_objects > 0
                           ? static_cast<double>(st.triples) /
                                 st.distinct_objects
                           : 0;
  }
  return stats;
}

std::string PredicateStats::Summary(const Dictionary& dict,
                                    size_t top_n) const {
  std::vector<uint32_t> ids(preds_.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::stable_sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    return preds_[a].triples > preds_[b].triples;
  });
  if (ids.size() > top_n) ids.resize(top_n);

  std::ostringstream out;
  out << "predicate stats: " << preds_.size() << " predicates, "
      << total_triples_ << " triples, " << num_subjects_ << " subjects, "
      << num_objects_ << " objects\n";
  for (uint32_t p : ids) {
    const PredStat& st = preds_[p];
    out << "  <" << dict.PredicateTerm(p).value << "> triples=" << st.triples
        << " subjects=" << st.distinct_subjects
        << " objects=" << st.distinct_objects << " fan-out=" << st.subject_fan_out
        << " fan-in=" << st.object_fan_in << "\n";
  }
  return out.str();
}

void PredicateStats::WriteTo(std::ostream* out) const {
  uint32_t np = static_cast<uint32_t>(preds_.size());
  out->write(reinterpret_cast<const char*>(&np), 4);
  out->write(reinterpret_cast<const char*>(&total_triples_), 8);
  out->write(reinterpret_cast<const char*>(&num_subjects_), 4);
  out->write(reinterpret_cast<const char*>(&num_objects_), 4);
  for (const PredStat& st : preds_) {
    out->write(reinterpret_cast<const char*>(&st.triples), 8);
    out->write(reinterpret_cast<const char*>(&st.distinct_subjects), 4);
    out->write(reinterpret_cast<const char*>(&st.distinct_objects), 4);
    out->write(reinterpret_cast<const char*>(&st.subject_fan_out), 8);
    out->write(reinterpret_cast<const char*>(&st.object_fan_in), 8);
  }
}

PredicateStats PredicateStats::ReadFrom(std::istream* in) {
  PredicateStats stats;
  uint32_t np = 0;
  in->read(reinterpret_cast<char*>(&np), 4);
  in->read(reinterpret_cast<char*>(&stats.total_triples_), 8);
  in->read(reinterpret_cast<char*>(&stats.num_subjects_), 4);
  in->read(reinterpret_cast<char*>(&stats.num_objects_), 4);
  stats.preds_.resize(np);
  for (PredStat& st : stats.preds_) {
    in->read(reinterpret_cast<char*>(&st.triples), 8);
    in->read(reinterpret_cast<char*>(&st.distinct_subjects), 4);
    in->read(reinterpret_cast<char*>(&st.distinct_objects), 4);
    in->read(reinterpret_cast<char*>(&st.subject_fan_out), 8);
    in->read(reinterpret_cast<char*>(&st.object_fan_in), 8);
  }
  if (!*in) throw std::runtime_error("PredicateStats: truncated stats");
  return stats;
}

}  // namespace lbr
