#include "rdf/dictionary.h"

#include <algorithm>
#include <cassert>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace lbr {

namespace {
constexpr uint8_t kSeenS = 1;
constexpr uint8_t kSeenO = 2;
constexpr uint8_t kSeenP = 4;
}  // namespace

void Dictionary::Add(const TermTriple& t) {
  assert(!finalized_);
  seen_[t.s] |= kSeenS;
  seen_[t.p] |= kSeenP;
  seen_[t.o] |= kSeenO;
}

void Dictionary::Finalize() {
  assert(!finalized_);
  // Deterministic ID assignment: sort terms within each class so that equal
  // datasets yield identical dictionaries regardless of insertion order.
  std::vector<const Term*> common, s_only, o_only, preds;
  for (const auto& [term, mask] : seen_) {
    bool is_s = mask & kSeenS;
    bool is_o = mask & kSeenO;
    if (is_s && is_o) {
      common.push_back(&term);
    } else if (is_s) {
      s_only.push_back(&term);
    } else if (is_o) {
      o_only.push_back(&term);
    }
    if (mask & kSeenP) preds.push_back(&term);
  }
  auto by_value = [](const Term* a, const Term* b) { return *a < *b; };
  std::sort(common.begin(), common.end(), by_value);
  std::sort(s_only.begin(), s_only.end(), by_value);
  std::sort(o_only.begin(), o_only.end(), by_value);
  std::sort(preds.begin(), preds.end(), by_value);

  num_common_ = static_cast<uint32_t>(common.size());
  subject_terms_.reserve(common.size() + s_only.size());
  object_terms_.reserve(common.size() + o_only.size());
  predicate_terms_.reserve(preds.size());

  for (const Term* t : common) {
    uint32_t id = static_cast<uint32_t>(subject_terms_.size());
    subject_ids_[*t] = id;
    object_ids_[*t] = id;
    subject_terms_.push_back(*t);
    object_terms_.push_back(*t);
  }
  for (const Term* t : s_only) {
    subject_ids_[*t] = static_cast<uint32_t>(subject_terms_.size());
    subject_terms_.push_back(*t);
  }
  for (const Term* t : o_only) {
    object_ids_[*t] = static_cast<uint32_t>(object_terms_.size());
    object_terms_.push_back(*t);
  }
  for (const Term* t : preds) {
    predicate_ids_[*t] = static_cast<uint32_t>(predicate_terms_.size());
    predicate_terms_.push_back(*t);
  }

  seen_.clear();
  finalized_ = true;
}

std::optional<uint32_t> Dictionary::SubjectId(const Term& t) const {
  assert(finalized_);
  auto it = subject_ids_.find(t);
  if (it == subject_ids_.end()) return std::nullopt;
  return it->second;
}

std::optional<uint32_t> Dictionary::PredicateId(const Term& t) const {
  assert(finalized_);
  auto it = predicate_ids_.find(t);
  if (it == predicate_ids_.end()) return std::nullopt;
  return it->second;
}

std::optional<uint32_t> Dictionary::ObjectId(const Term& t) const {
  assert(finalized_);
  auto it = object_ids_.find(t);
  if (it == object_ids_.end()) return std::nullopt;
  return it->second;
}

Triple Dictionary::Encode(const TermTriple& t) const {
  auto s = SubjectId(t.s);
  auto p = PredicateId(t.p);
  auto o = ObjectId(t.o);
  if (!s || !p || !o) {
    throw std::invalid_argument("Dictionary::Encode: unknown term in triple " +
                                t.s.ToString() + " " + t.p.ToString() + " " +
                                t.o.ToString());
  }
  return Triple(*s, *p, *o);
}

TermTriple Dictionary::Decode(const Triple& t) const {
  TermTriple out;
  out.s = SubjectTerm(t.s);
  out.p = PredicateTerm(t.p);
  out.o = ObjectTerm(t.o);
  return out;
}

namespace {

void WriteTerm(const Term& t, std::ostream* out) {
  uint8_t kind = static_cast<uint8_t>(t.kind);
  uint32_t len = static_cast<uint32_t>(t.value.size());
  out->write(reinterpret_cast<const char*>(&kind), 1);
  out->write(reinterpret_cast<const char*>(&len), sizeof(len));
  out->write(t.value.data(), len);
}

Term ReadTerm(std::istream* in) {
  uint8_t kind = 0;
  uint32_t len = 0;
  in->read(reinterpret_cast<char*>(&kind), 1);
  in->read(reinterpret_cast<char*>(&len), sizeof(len));
  std::string value(len, '\0');
  if (len > 0) in->read(value.data(), len);
  return Term(static_cast<TermKind>(kind), std::move(value));
}

constexpr char kDictMagic[8] = {'L', 'B', 'R', 'D', 'I', 'C', '0', '1'};

}  // namespace

void Dictionary::WriteTo(std::ostream* out) const {
  assert(finalized_);
  out->write(kDictMagic, sizeof(kDictMagic));
  uint32_t ns = num_subjects(), np = num_predicates(), no = num_objects();
  out->write(reinterpret_cast<const char*>(&num_common_), 4);
  out->write(reinterpret_cast<const char*>(&ns), 4);
  out->write(reinterpret_cast<const char*>(&np), 4);
  out->write(reinterpret_cast<const char*>(&no), 4);
  // The common range is stored once (subject_terms_ prefix == object_terms_
  // prefix); then the subject-only and object-only tails, then predicates.
  for (uint32_t i = 0; i < ns; ++i) WriteTerm(subject_terms_[i], out);
  for (uint32_t i = num_common_; i < no; ++i) WriteTerm(object_terms_[i], out);
  for (uint32_t i = 0; i < np; ++i) WriteTerm(predicate_terms_[i], out);
}

Dictionary Dictionary::ReadFrom(std::istream* in) {
  char magic[8];
  in->read(magic, sizeof(magic));
  if (!std::equal(magic, magic + 8, kDictMagic)) {
    throw std::runtime_error("Dictionary: bad magic");
  }
  Dictionary dict;
  uint32_t ns = 0, np = 0, no = 0;
  in->read(reinterpret_cast<char*>(&dict.num_common_), 4);
  in->read(reinterpret_cast<char*>(&ns), 4);
  in->read(reinterpret_cast<char*>(&np), 4);
  in->read(reinterpret_cast<char*>(&no), 4);
  dict.subject_terms_.reserve(ns);
  dict.object_terms_.reserve(no);
  dict.predicate_terms_.reserve(np);
  for (uint32_t i = 0; i < ns; ++i) {
    Term t = ReadTerm(in);
    dict.subject_ids_[t] = i;
    if (i < dict.num_common_) {
      dict.object_ids_[t] = i;
      dict.object_terms_.push_back(t);
    }
    dict.subject_terms_.push_back(std::move(t));
  }
  for (uint32_t i = dict.num_common_; i < no; ++i) {
    Term t = ReadTerm(in);
    dict.object_ids_[t] = i;
    dict.object_terms_.push_back(std::move(t));
  }
  for (uint32_t i = 0; i < np; ++i) {
    Term t = ReadTerm(in);
    dict.predicate_ids_[t] = i;
    dict.predicate_terms_.push_back(std::move(t));
  }
  dict.finalized_ = true;
  return dict;
}

}  // namespace lbr
