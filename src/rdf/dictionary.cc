#include "rdf/dictionary.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bitmat/snapshot_format.h"

namespace lbr {

namespace {

constexpr char kDictMagic[8] = {'L', 'B', 'R', 'D', 'I', 'C', '0', '1'};
/// The magic, then |Vso|, |Vs|, |Vp|, |Vo|; every term has a 5-byte header.
constexpr uint64_t kHeaderBytes = 24;
constexpr uint64_t kTermHeaderBytes = 5;

[[noreturn]] void ThrowCorrupt(const std::string& what) {
  throw SnapshotError(SnapshotErrorCode::kCorrupt, "dict section: " + what);
}

}  // namespace

Dictionary::Dictionary() : Dictionary(FromSortedClasses({})) {}

Dictionary::Dictionary(std::shared_ptr<const void> owner, const uint8_t* data,
                       uint64_t size)
    : owner_(std::move(owner)), data_(data), size_(size) {
  if (size < kHeaderBytes || std::memcmp(data, kDictMagic, 8) != 0) {
    ThrowCorrupt("bad header");
  }
  num_common_ = ReadPod<uint32_t>(data, 8);
  num_subjects_ = ReadPod<uint32_t>(data, 12);
  num_predicates_ = ReadPod<uint32_t>(data, 16);
  num_objects_ = ReadPod<uint32_t>(data, 20);
  const uint64_t num_terms = predicate_base() + num_predicates_;
  if (num_common_ > num_subjects_ || num_common_ > num_objects_ ||
      num_terms > (size - kHeaderBytes) / kTermHeaderBytes) {
    ThrowCorrupt("term counts disagree with each other or the size");
  }
  offsets_.reserve(num_terms);
  uint64_t pos = kHeaderBytes;
  for (uint64_t i = 0; i < num_terms; ++i) {
    if (size - pos < kTermHeaderBytes ||
        ReadPod<uint32_t>(data, pos + 1) > size - pos - kTermHeaderBytes ||
        data[pos] > static_cast<uint8_t>(TermKind::kBlank)) {
      ThrowCorrupt("term " + std::to_string(i) +
                   " runs past the end or has an unknown kind");
    }
    offsets_.push_back(pos);
    pos += kTermHeaderBytes + ReadPod<uint32_t>(data, pos + 1);
  }
  if (pos != size) ThrowCorrupt("trailing bytes after the last term");
  // Lookups binary-search each class, so each must be strictly ascending.
  for (uint64_t i = 1; i < num_terms; ++i) {
    const bool class_start =
        i == num_common_ || i == num_subjects_ || i == predicate_base();
    if (!class_start && !(KeyOf(offsets_[i - 1]) < KeyOf(offsets_[i]))) {
      ThrowCorrupt("term " + std::to_string(i) + " is out of order");
    }
  }
}

Dictionary Dictionary::FromSortedClasses(
    const std::vector<const Term*> (&classes)[4]) {
  auto section = std::make_shared<std::string>(kDictMagic, 8);
  const uint32_t counts[4] = {
      static_cast<uint32_t>(classes[0].size()),
      static_cast<uint32_t>(classes[0].size() + classes[1].size()),
      static_cast<uint32_t>(classes[3].size()),
      static_cast<uint32_t>(classes[0].size() + classes[2].size())};
  section->append(reinterpret_cast<const char*>(counts), sizeof(counts));
  for (const auto& terms : classes) {
    for (const Term* t : terms) {
      const uint32_t len = static_cast<uint32_t>(t->value.size());
      section->push_back(static_cast<char>(t->kind));
      section->append(reinterpret_cast<const char*>(&len), sizeof(len));
      section->append(t->value);
    }
  }
  return Dictionary(section, reinterpret_cast<const uint8_t*>(section->data()),
                    section->size());
}

Dictionary::Key Dictionary::KeyOf(uint64_t at) const {
  return {data_[at],
          std::string_view(
              reinterpret_cast<const char*>(data_) + at + kTermHeaderBytes,
              ReadPod<uint32_t>(data_, at + 1))};
}

std::optional<uint32_t> Dictionary::Find(uint64_t lo, uint64_t hi,
                                         const Term& t, uint64_t base) const {
  const Key key{static_cast<uint8_t>(t.kind), t.value};
  const auto first = offsets_.begin() + lo, last = offsets_.begin() + hi;
  auto before = [this](uint64_t at, const Key& k) { return KeyOf(at) < k; };
  const auto it = std::lower_bound(first, last, key, before);
  if (it == last || KeyOf(*it) != key) return std::nullopt;
  return static_cast<uint32_t>(it - offsets_.begin() - base);
}

std::optional<uint32_t> Dictionary::SubjectId(const Term& t) const {
  if (auto id = Find(0, num_common_, t, 0)) return id;
  return Find(num_common_, num_subjects_, t, 0);
}

std::optional<uint32_t> Dictionary::PredicateId(const Term& t) const {
  const uint64_t base = predicate_base();
  return Find(base, base + num_predicates_, t, base);
}

std::optional<uint32_t> Dictionary::ObjectId(const Term& t) const {
  if (auto id = Find(0, num_common_, t, 0)) return id;
  return Find(num_subjects_, predicate_base(), t,
              num_subjects_ - num_common_);
}

Term Dictionary::TermAt(uint64_t index) const {
  if (index >= offsets_.size()) {
    throw std::out_of_range("Dictionary: no term " + std::to_string(index));
  }
  const Key key = KeyOf(offsets_[index]);
  return Term(static_cast<TermKind>(key.first), std::string(key.second));
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

}  // namespace lbr
