#include "bitmat/triple_index.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/fault_injection.h"

namespace lbr {

namespace {
const CompressedRow kEmptyRow;

constexpr char kMagic[8] = {'L', 'B', 'R', 'I', 'D', 'X', '0', '1'};

void WriteRows(const std::vector<std::pair<uint32_t, CompressedRow>>& rows,
               std::ostream* out) {
  uint32_t n = static_cast<uint32_t>(rows.size());
  out->write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (const auto& [id, row] : rows) {
    out->write(reinterpret_cast<const char*>(&id), sizeof(id));
    row.WriteTo(out);
  }
}

void ReadRows(std::istream* in,
              std::vector<std::pair<uint32_t, CompressedRow>>* rows) {
  uint32_t n = 0;
  in->read(reinterpret_cast<char*>(&n), sizeof(n));
  rows->clear();
  rows->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t id = 0;
    in->read(reinterpret_cast<char*>(&id), sizeof(id));
    rows->emplace_back(id, CompressedRow::ReadFrom(in));
  }
}

// Heap bytes of a materialized slice: vector storage plus owned payload.
// Views into the map own no payload, so a freshly materialized mapped
// slice costs ~sizeof(pair) per row regardless of payload size.
uint64_t SliceHeapBytes(const TripleIndex::PredSlice& slice) {
  uint64_t bytes = sizeof(TripleIndex::PredSlice);
  bytes += slice.so_rows.capacity() *
           sizeof(std::pair<uint32_t, CompressedRow>);
  bytes += slice.os_rows.capacity() *
           sizeof(std::pair<uint32_t, CompressedRow>);
  for (const auto& [id, row] : slice.so_rows) {
    (void)id;
    bytes += row.OwnedHeapBytes();
  }
  for (const auto& [id, row] : slice.os_rows) {
    (void)id;
    bytes += row.OwnedHeapBytes();
  }
  bytes += slice.so_extent_copy.capacity() * sizeof(uint32_t);
  bytes += slice.os_extent_copy.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace

TripleIndex TripleIndex::Build(const Graph& graph) {
  TripleIndex idx;
  const Dictionary& dict = graph.dict();
  idx.num_subjects_ = dict.num_subjects();
  idx.num_predicates_ = dict.num_predicates();
  idx.num_objects_ = dict.num_objects();
  idx.num_common_ = dict.num_common();
  idx.num_triples_ = graph.num_triples();
  idx.pred_counts_.assign(idx.num_predicates_, 0);
  idx.non_empty_s_.resize(idx.num_predicates_);
  idx.non_empty_o_.resize(idx.num_predicates_);
  idx.preds_.resize(idx.num_predicates_);

  // Bucket triples by predicate in both orientations, then compress.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> by_pred(
      idx.num_predicates_);
  for (const Triple& t : graph.triples()) {
    by_pred[t.p].emplace_back(t.s, t.o);
    ++idx.pred_counts_[t.p];
  }

  for (uint32_t p = 0; p < idx.num_predicates_; ++p) {
    auto slice = std::make_shared<PredSlice>();
    idx.non_empty_s_[p].Resize(idx.num_subjects_);
    idx.non_empty_o_[p].Resize(idx.num_objects_);
    auto& pairs = by_pred[p];

    // S-O orientation: group by subject. Input triples are (S,P,O)-sorted,
    // so pairs are already (s, o)-sorted.
    std::vector<uint32_t> cols;
    for (size_t i = 0; i < pairs.size();) {
      uint32_t s = pairs[i].first;
      cols.clear();
      while (i < pairs.size() && pairs[i].first == s) {
        cols.push_back(pairs[i].second);
        ++i;
      }
      slice->so_rows.emplace_back(s, CompressedRow::FromPositions(cols));
      idx.non_empty_s_[p].Set(s);
    }

    // O-S orientation: re-sort by (o, s).
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second < b.second
                                            : a.first < b.first;
              });
    for (size_t i = 0; i < pairs.size();) {
      uint32_t o = pairs[i].second;
      cols.clear();
      while (i < pairs.size() && pairs[i].second == o) {
        cols.push_back(pairs[i].first);
        ++i;
      }
      slice->os_rows.emplace_back(o, CompressedRow::FromPositions(cols));
      idx.non_empty_o_[p].Set(o);
    }
    pairs.clear();
    pairs.shrink_to_fit();
    idx.preds_[p] = std::move(slice);
  }
  return idx;
}

const CompressedRow& TripleIndex::FindRowIn(
    const std::vector<std::pair<uint32_t, CompressedRow>>& rows, uint32_t id) {
  auto it = std::lower_bound(
      rows.begin(), rows.end(), id,
      [](const auto& pair, uint32_t key) { return pair.first < key; });
  if (it == rows.end() || it->first != id) return kEmptyRow;
  return it->second;
}

const TripleIndex::PredSlice& TripleIndex::EnsureSlice(uint32_t p) const {
  if (backing_ == nullptr) return *preds_[p];
  // Mapped mode: materialize (or touch) under the per-predicate lock. The
  // returned reference stays valid until the slice is spilled — preds_[p]
  // keeps a strong ref until then.
  return *MaterializeSlice(p);
}

TripleIndex::SlicePin TripleIndex::Slice(uint32_t p) const {
  if (p >= num_predicates_) return nullptr;
  if (backing_ == nullptr) return preds_[p];
  return MaterializeSlice(p);
}

void TripleIndex::DecodeSliceRows(
    const SliceLoc& loc, const char* what,
    std::vector<std::pair<uint32_t, CompressedRow>>* rows,
    std::vector<uint32_t>* extent_copy) const {
  const uint8_t* base = backing_->file->data();
  const uint64_t dir_bytes =
      static_cast<uint64_t>(loc.dir_rows) * sizeof(SnapRowDirEntry);
  const uint8_t* dir = base + loc.dir_off;
  const uint32_t* extent =
      reinterpret_cast<const uint32_t*>(base + loc.extent_off);
  std::vector<uint8_t> dir_copy;
  if (extent_copy != nullptr) {
    // Paranoid mode: pread both regions into heap buffers and verify/decode
    // the copies — a storage-level fault surfaces as a clean pread error or
    // checksum mismatch here, never a SIGBUS on a later mapped access.
    dir_copy.resize(dir_bytes);
    if (dir_bytes > 0) {
      backing_->file->ReadAt(loc.dir_off, dir_bytes, dir_copy.data());
    }
    dir = dir_copy.data();
    extent_copy->resize(loc.extent_words);
    if (loc.extent_words > 0) {
      backing_->file->ReadAt(loc.extent_off, loc.extent_words * 4,
                             extent_copy->data());
    }
    extent = extent_copy->data();
  }
  // Lazy integrity: verify the directory and extent checksums on every
  // materialization (re-materializing after a spill re-reads from disk, so
  // re-verifying is the honest contract). The index.checksum fault site
  // forces the mismatch path — how tests exercise quarantine without
  // corrupting a real file.
  const bool forced =
      FaultRegistry::Instance().ShouldInject(FaultSiteId::kIndexChecksum);
  if (forced || Crc64(dir, dir_bytes) != loc.dir_crc) {
    throw SnapshotError(SnapshotErrorCode::kChecksum,
                        std::string("row directory of ") + what + " in " +
                            backing_->file->path());
  }
  if (Crc64(extent, loc.extent_words * 4) != loc.extent_crc) {
    throw SnapshotError(SnapshotErrorCode::kChecksum,
                        std::string("extent of ") + what + " in " +
                            backing_->file->path());
  }
  rows->clear();
  rows->reserve(loc.dir_rows);
  for (uint32_t i = 0; i < loc.dir_rows; ++i) {
    SnapRowDirEntry e =
        ReadPod<SnapRowDirEntry>(dir, i * sizeof(SnapRowDirEntry));
    if (e.payload_off_words + e.payload_words > loc.extent_words ||
        e.encoding > static_cast<uint8_t>(CompressedRow::Encoding::kRuns)) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          std::string("row directory entry of ") + what +
                              " out of bounds in " + backing_->file->path());
    }
    rows->emplace_back(
        e.id, CompressedRow::View(
                  static_cast<CompressedRow::Encoding>(e.encoding),
                  e.first_bit != 0, e.count, extent + e.payload_off_words,
                  e.payload_words));
  }
}

std::shared_ptr<TripleIndex::PredSlice> TripleIndex::MaterializeSlice(
    uint32_t p) const {
  Backing& b = *backing_;
  // Degraded mode: a predicate that previously failed integrity checks is
  // quarantined — every subsequent touch fails fast with the same
  // structured error (this query fails; other predicates keep serving).
  if (b.quarantined[p].load(std::memory_order_relaxed) != 0) {
    throw SnapshotError(SnapshotErrorCode::kChecksum,
                        "predicate " + std::to_string(p) +
                            " quarantined after an earlier integrity "
                            "failure in " +
                            b.file->path());
  }
  b.last_touch[p].store(
      b.touch_seq.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  std::shared_ptr<PredSlice> result;
  {
    std::lock_guard<std::mutex> lk(b.mu[p]);
    if (preds_[p] != nullptr) return preds_[p];
    auto slice = std::make_shared<PredSlice>();
    try {
      // The decode pair is the transient-I/O boundary: a retry starts from
      // clear vectors, so nothing partial survives a failed attempt.
      RetryTransient([&] {
        FaultRegistry::Instance().MaybeInject(FaultSiteId::kIndexMaterialize);
        DecodeSliceRows(b.so_loc[p], "S-O slice", &slice->so_rows,
                        b.paranoid ? &slice->so_extent_copy : nullptr);
        DecodeSliceRows(b.os_loc[p], "O-S slice", &slice->os_rows,
                        b.paranoid ? &slice->os_extent_copy : nullptr);
      });
    } catch (const SnapshotError& e) {
      if (e.code() == SnapshotErrorCode::kChecksum ||
          e.code() == SnapshotErrorCode::kCorrupt) {
        if (b.quarantined[p].exchange(1, std::memory_order_relaxed) == 0) {
          b.quarantines.fetch_add(1, std::memory_order_relaxed);
        }
      }
      throw;
    }
    slice->heap_bytes = SliceHeapBytes(*slice);
    if (b.meter != nullptr) b.meter->ChargeMemory(slice->heap_bytes);
    b.resident_bytes.fetch_add(slice->heap_bytes, std::memory_order_relaxed);
    b.materializations.fetch_add(1, std::memory_order_relaxed);
    preds_[p] = slice;
    b.resident[p].store(1, std::memory_order_relaxed);
    result = std::move(slice);
  }
  // Budget enforcement outside mu[p] (the spiller try_locks slice mutexes,
  // so holding one here would only shrink its victim pool). `result` keeps
  // this slice's use_count above 1, so the pass can never reclaim the
  // slice we are about to hand out.
  if (b.budget_bytes > 0 && b.meter != nullptr &&
      b.meter->memory_used() > b.budget_bytes) {
    SpillToFit();
  }
  return result;
}

uint64_t TripleIndex::SpillToFit() const {
  if (backing_ == nullptr) return 0;
  Backing& b = *backing_;
  if (b.budget_bytes == 0 || b.meter == nullptr) return 0;
  std::unique_lock<std::mutex> spill_lk(b.spill_mu, std::try_to_lock);
  if (!spill_lk.owns_lock()) return 0;  // another thread is already spilling
  uint64_t released = 0;
  // Cold cache entries go first (the Database wires TpCache eviction here):
  // they are rebuildable from slices, slices are rebuildable from the map.
  if (b.meter->memory_used() > b.budget_bytes && b.spill_hook) {
    released += b.spill_hook();
  }
  // Bounded stall counter: consecutive victim attempts that found the
  // slice pinned or its lock contended. Once every candidate has been
  // tried fruitlessly, the remaining residency is all pinned working set
  // and the pass yields (the budget is best-effort under pins).
  uint32_t stalls = 0;
  while (b.meter->memory_used() > b.budget_bytes &&
         stalls <= num_predicates_) {
    // Pick the coldest materialized slice (lock-free flag scan).
    uint32_t victim = num_predicates_;
    uint64_t victim_touch = ~0ull;
    for (uint32_t p = 0; p < num_predicates_; ++p) {
      if (b.resident[p].load(std::memory_order_relaxed) == 0) continue;
      uint64_t t = b.last_touch[p].load(std::memory_order_relaxed);
      if (t < victim_touch) {
        victim_touch = t;
        victim = p;
      }
    }
    if (victim == num_predicates_) break;  // nothing materialized
    std::unique_lock<std::mutex> lk(b.mu[victim], std::try_to_lock);
    // use_count is stable here: new pins require mu[victim], which we
    // hold; concurrent pin releases only make a spillable slice look
    // pinned (conservative skip).
    if (lk.owns_lock() && preds_[victim] != nullptr &&
        preds_[victim].use_count() == 1) {
      uint64_t bytes = preds_[victim]->heap_bytes;
      preds_[victim].reset();
      b.resident[victim].store(0, std::memory_order_relaxed);
      b.meter->ReleaseMemory(bytes);
      b.resident_bytes.fetch_sub(bytes, std::memory_order_relaxed);
      b.spills.fetch_add(1, std::memory_order_relaxed);
      released += bytes;
      stalls = 0;
      // Return the extent pages to the file: the "spill back to the mapped
      // extents" half of the contract. Clean read-only pages just drop;
      // the next materialization faults them back from disk.
      const SliceLoc& so = b.so_loc[victim];
      const SliceLoc& os = b.os_loc[victim];
      b.file->Advise(so.extent_off, so.extent_words * 4,
                     MappedFile::Advice::kDontNeed);
      b.file->Advise(os.extent_off, os.extent_words * 4,
                     MappedFile::Advice::kDontNeed);
    } else {
      // Pinned or contended: stamp it recently-used so the next scan tries
      // the next-coldest candidate instead of retrying this one.
      b.last_touch[victim].store(
          b.touch_seq.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      ++stalls;
    }
  }
  return released;
}

void TripleIndex::SetMemoryBudget(uint64_t bytes, QueryControl* meter) {
  if (backing_ == nullptr) return;
  backing_->budget_bytes = bytes;
  backing_->meter = meter != nullptr ? meter : &backing_->own_meter;
  // Late installation: slices materialized before the budget was set (e.g.
  // by stats collection) join the accounting now.
  uint64_t resident =
      backing_->resident_bytes.load(std::memory_order_relaxed);
  if (resident > 0) backing_->meter->ChargeMemory(resident);
}

void TripleIndex::SetSpillHook(std::function<uint64_t()> hook) {
  if (backing_ == nullptr) return;
  backing_->spill_hook = std::move(hook);
}

void TripleIndex::Prefetch(uint32_t p) const {
  if (backing_ == nullptr || p >= num_predicates_) return;
  Backing& b = *backing_;
  {
    // Resident already? Touch it so the prefetch also refreshes LRU.
    std::lock_guard<std::mutex> lk(b.mu[p]);
    if (preds_[p] != nullptr) return;
  }
  const SliceLoc& so = b.so_loc[p];
  const SliceLoc& os = b.os_loc[p];
  b.file->Advise(so.dir_off,
                 static_cast<uint64_t>(so.dir_rows) * sizeof(SnapRowDirEntry),
                 MappedFile::Advice::kWillNeed);
  b.file->Advise(so.extent_off, so.extent_words * 4,
                 MappedFile::Advice::kWillNeed);
  b.file->Advise(os.dir_off,
                 static_cast<uint64_t>(os.dir_rows) * sizeof(SnapRowDirEntry),
                 MappedFile::Advice::kWillNeed);
  b.file->Advise(os.extent_off, os.extent_words * 4,
                 MappedFile::Advice::kWillNeed);
  b.prefetches.fetch_add(1, std::memory_order_relaxed);
}

std::vector<uint32_t> TripleIndex::QuarantinedSlices() const {
  std::vector<uint32_t> out;
  if (backing_ == nullptr) return out;
  for (uint32_t p = 0; p < num_predicates_; ++p) {
    if (backing_->quarantined[p].load(std::memory_order_relaxed) != 0) {
      out.push_back(p);
    }
  }
  return out;
}

bool TripleIndex::VerifySlices(std::vector<uint32_t>* corrupt,
                               std::vector<uint32_t>* quarantined) const {
  if (backing_ == nullptr) return true;
  const Backing& b = *backing_;
  const uint8_t* base = b.file->data();
  bool ok = true;
  for (uint32_t p = 0; p < num_predicates_; ++p) {
    bool bad = false;
    for (const SliceLoc* loc : {&b.so_loc[p], &b.os_loc[p]}) {
      const uint64_t dir_bytes =
          static_cast<uint64_t>(loc->dir_rows) * sizeof(SnapRowDirEntry);
      if (Crc64(base + loc->dir_off, dir_bytes) != loc->dir_crc ||
          Crc64(base + loc->extent_off, loc->extent_words * 4) !=
              loc->extent_crc) {
        bad = true;
      }
    }
    if (bad) {
      ok = false;
      if (corrupt != nullptr) corrupt->push_back(p);
    }
    if (b.quarantined[p].load(std::memory_order_relaxed) != 0) {
      ok = false;
      if (quarantined != nullptr) quarantined->push_back(p);
    }
  }
  return ok;
}

const CompressedRow& TripleIndex::SoRow(uint32_t p, uint32_t s) const {
  if (p >= num_predicates_) return kEmptyRow;
  return FindRowIn(EnsureSlice(p).so_rows, s);
}

const CompressedRow& TripleIndex::OsRow(uint32_t p, uint32_t o) const {
  if (p >= num_predicates_) return kEmptyRow;
  return FindRowIn(EnsureSlice(p).os_rows, o);
}

BitMat TripleIndex::PoBitMat(uint32_t s) const {
  BitMat bm(num_predicates_, num_objects_);
  for (uint32_t p = 0; p < num_predicates_; ++p) {
    SlicePin pin = Slice(p);
    const CompressedRow& row = FindRowIn(pin->so_rows, s);
    if (!row.IsEmpty()) bm.SetRow(p, row);
  }
  return bm;
}

BitMat TripleIndex::PsBitMat(uint32_t o) const {
  BitMat bm(num_predicates_, num_subjects_);
  for (uint32_t p = 0; p < num_predicates_; ++p) {
    SlicePin pin = Slice(p);
    const CompressedRow& row = FindRowIn(pin->os_rows, o);
    if (!row.IsEmpty()) bm.SetRow(p, row);
  }
  return bm;
}

TripleIndex::SizeReport TripleIndex::ComputeSizeReport() const {
  SizeReport report;
  uint64_t rle_so = 0, rle_os = 0;
  for (uint32_t p = 0; p < num_predicates_; ++p) {
    SlicePin pin = Slice(p);
    for (const auto& [id, row] : pin->so_rows) {
      (void)id;
      report.so_bytes += row.PayloadBytes();
      rle_so +=
          CompressedRow::RleOnlyFromPositions(row.SetBits()).PayloadBytes();
      ++report.num_rows;
    }
    for (const auto& [id, row] : pin->os_rows) {
      (void)id;
      report.os_bytes += row.PayloadBytes();
      rle_os +=
          CompressedRow::RleOnlyFromPositions(row.SetBits()).PayloadBytes();
      ++report.num_rows;
    }
  }
  // All four families: SO + OS stored, P-O mirrors SO, P-S mirrors OS.
  report.hybrid_bytes = 2 * (report.so_bytes + report.os_bytes);
  report.rle_only_bytes = 2 * (rle_so + rle_os);
  return report;
}

void TripleIndex::WriteTo(std::ostream* out) const {
  out->write(kMagic, sizeof(kMagic));
  out->write(reinterpret_cast<const char*>(&num_subjects_), 4);
  out->write(reinterpret_cast<const char*>(&num_predicates_), 4);
  out->write(reinterpret_cast<const char*>(&num_objects_), 4);
  out->write(reinterpret_cast<const char*>(&num_common_), 4);
  out->write(reinterpret_cast<const char*>(&num_triples_), 8);
  for (uint32_t p = 0; p < num_predicates_; ++p) {
    out->write(reinterpret_cast<const char*>(&pred_counts_[p]), 8);
    SlicePin pin = Slice(p);
    WriteRows(pin->so_rows, out);
    WriteRows(pin->os_rows, out);
  }
}

TripleIndex TripleIndex::ReadFrom(std::istream* in) {
  char magic[8];
  in->read(magic, sizeof(magic));
  if (!std::equal(magic, magic + 8, kMagic)) {
    throw std::runtime_error("TripleIndex: bad magic");
  }
  TripleIndex idx;
  in->read(reinterpret_cast<char*>(&idx.num_subjects_), 4);
  in->read(reinterpret_cast<char*>(&idx.num_predicates_), 4);
  in->read(reinterpret_cast<char*>(&idx.num_objects_), 4);
  in->read(reinterpret_cast<char*>(&idx.num_common_), 4);
  in->read(reinterpret_cast<char*>(&idx.num_triples_), 8);
  idx.pred_counts_.resize(idx.num_predicates_);
  idx.non_empty_s_.resize(idx.num_predicates_);
  idx.non_empty_o_.resize(idx.num_predicates_);
  idx.preds_.resize(idx.num_predicates_);
  for (uint32_t p = 0; p < idx.num_predicates_; ++p) {
    in->read(reinterpret_cast<char*>(&idx.pred_counts_[p]), 8);
    auto slice = std::make_shared<PredSlice>();
    ReadRows(in, &slice->so_rows);
    ReadRows(in, &slice->os_rows);
    idx.non_empty_s_[p].Resize(idx.num_subjects_);
    idx.non_empty_o_[p].Resize(idx.num_objects_);
    for (const auto& [id, row] : slice->so_rows) {
      (void)row;
      idx.non_empty_s_[p].Set(id);
    }
    for (const auto& [id, row] : slice->os_rows) {
      (void)row;
      idx.non_empty_o_[p].Set(id);
    }
    idx.preds_[p] = std::move(slice);
  }
  return idx;
}

void TripleIndex::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("TripleIndex: cannot open " + path);
  WriteTo(&out);
}

TripleIndex TripleIndex::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("TripleIndex: cannot open " + path);
  return ReadFrom(&in);
}

}  // namespace lbr
