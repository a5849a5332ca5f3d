#include "bitmat/triple_index.h"

#include <algorithm>

#include "util/fault_injection.h"

namespace lbr {

namespace {
const CompressedRow kEmptyRow;

// Heap bytes of a materialized slice: vector storage plus owned payload.
// Views into the map own no payload, so a freshly materialized mapped
// slice costs ~sizeof(pair) per row regardless of payload size.
uint64_t SliceHeapBytes(const TripleIndex::SliceRows& slice) {
  uint64_t bytes = sizeof(TripleIndex::SliceRows);
  bytes += slice.rows.capacity() * sizeof(std::pair<uint32_t, CompressedRow>);
  for (const auto& [id, row] : slice.rows) {
    (void)id;
    bytes += row.OwnedHeapBytes();
  }
  bytes += slice.extent_copy.capacity() * sizeof(uint32_t);
  return bytes;
}

// Groups (row id, column id) pairs, sorted by row then column, into the
// sparse rows of one side.
void GroupRows(const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
               TripleIndex::SliceRows* slice, Bitvector* non_empty) {
  std::vector<uint32_t> cols;
  for (size_t i = 0; i < pairs.size();) {
    uint32_t id = pairs[i].first;
    cols.clear();
    while (i < pairs.size() && pairs[i].first == id) {
      cols.push_back(pairs[i].second);
      ++i;
    }
    slice->rows.emplace_back(id, CompressedRow::FromPositions(cols));
    non_empty->Set(id);
  }
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
  idx.slices_.resize(2 * static_cast<size_t>(idx.num_predicates_));

  // Bucket triples by predicate in both orientations, then compress.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> by_pred(
      idx.num_predicates_);
  for (const Triple& t : graph.triples()) {
    by_pred[t.p].emplace_back(t.s, t.o);
    ++idx.pred_counts_[t.p];
  }

  for (uint32_t p = 0; p < idx.num_predicates_; ++p) {
    idx.non_empty_s_[p].Resize(idx.num_subjects_);
    idx.non_empty_o_[p].Resize(idx.num_objects_);
    auto& pairs = by_pred[p];

    // S-O side: group by subject. Input triples are (S,P,O)-sorted, so
    // pairs are already (s, o)-sorted.
    auto so = std::make_shared<SliceRows>();
    GroupRows(pairs, so.get(), &idx.non_empty_s_[p]);

    // O-S side: swap to (o, s) and re-sort.
    for (auto& pair : pairs) std::swap(pair.first, pair.second);
    std::sort(pairs.begin(), pairs.end());
    auto os = std::make_shared<SliceRows>();
    GroupRows(pairs, os.get(), &idx.non_empty_o_[p]);

    pairs.clear();
    pairs.shrink_to_fit();
    idx.slices_[SlotOf(p, Side::kSO)] = std::move(so);
    idx.slices_[SlotOf(p, Side::kOS)] = std::move(os);
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

const TripleIndex::SliceRows& TripleIndex::EnsureSlice(uint32_t p,
                                                       Side side) const {
  if (backing_ == nullptr) return *slices_[SlotOf(p, side)];
  // Mapped mode: materialize (or touch) under the slice's lock. The
  // returned reference stays valid until the slice is spilled —
  // slices_[slot] keeps a strong ref until then.
  return *MaterializeSlice(p, side);
}

TripleIndex::SlicePin TripleIndex::Slice(uint32_t p, Side side) const {
  if (p >= num_predicates_) return nullptr;
  if (backing_ == nullptr) return slices_[SlotOf(p, side)];
  return MaterializeSlice(p, side);
}

bool TripleIndex::SliceChecksumsMatch(const SliceLoc& loc) const {
  const uint8_t* base = backing_->file->data();
  return Checksum64(base + loc.dir_off,
                    static_cast<uint64_t>(loc.dir_rows) *
                        sizeof(SnapRowDirEntry)) == loc.dir_checksum &&
         Checksum64(base + loc.extent_off, loc.extent_words * 4) ==
             loc.extent_checksum;
}

void TripleIndex::DecodeSliceRows(uint32_t p, Side side,
                                  SliceRows* slice) const {
  const Backing& b = *backing_;
  const SliceLoc& loc = b.loc[SlotOf(p, side)];
  const uint8_t* base = b.file->data();
  const uint64_t dir_bytes =
      static_cast<uint64_t>(loc.dir_rows) * sizeof(SnapRowDirEntry);
  const uint8_t* dir = base + loc.dir_off;
  const uint32_t* extent =
      reinterpret_cast<const uint32_t*>(base + loc.extent_off);
  std::vector<uint8_t> dir_copy;
  if (b.paranoid) {
    // Paranoid mode: pread both regions into heap buffers and verify/decode
    // the copies — a storage-level fault surfaces as a clean pread error or
    // checksum mismatch here, never a SIGBUS on a later mapped access.
    dir_copy.resize(dir_bytes);
    if (dir_bytes > 0) b.file->ReadAt(loc.dir_off, dir_bytes, dir_copy.data());
    dir = dir_copy.data();
    slice->extent_copy.resize(loc.extent_words);
    if (loc.extent_words > 0) {
      b.file->ReadAt(loc.extent_off, loc.extent_words * 4,
                     slice->extent_copy.data());
    }
    extent = slice->extent_copy.data();
  }
  const auto what = [&](const char* region) {
    return std::string(region) + " of the " +
           (side == Side::kSO ? "S-O" : "O-S") +
           " slice of predicate " + std::to_string(p) + " in " +
           b.file->path();
  };
  // Lazy integrity: verify the directory and extent checksums on every
  // materialization (re-materializing after a spill re-reads from disk, so
  // re-verifying is the honest contract). The index.checksum fault site
  // forces the mismatch path — how tests exercise quarantine without
  // corrupting a real file.
  const bool forced =
      FaultRegistry::Instance().ShouldInject(FaultSiteId::kIndexChecksum);
  if (forced || Checksum64(dir, dir_bytes) != loc.dir_checksum) {
    throw SnapshotError(SnapshotErrorCode::kChecksum, what("row directory"));
  }
  if (Checksum64(extent, loc.extent_words * 4) != loc.extent_checksum) {
    throw SnapshotError(SnapshotErrorCode::kChecksum, what("extent"));
  }
  auto& rows = slice->rows;
  rows.clear();
  rows.reserve(loc.dir_rows);
  for (uint32_t i = 0; i < loc.dir_rows; ++i) {
    SnapRowDirEntry e =
        ReadPod<SnapRowDirEntry>(dir, i * sizeof(SnapRowDirEntry));
    if (e.payload_off_words + e.payload_words > loc.extent_words ||
        e.encoding > static_cast<uint8_t>(CompressedRow::Encoding::kRuns)) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          what("row directory entry") + " out of bounds");
    }
    rows.emplace_back(
        e.id, CompressedRow::View(
                  static_cast<CompressedRow::Encoding>(e.encoding),
                  e.first_bit != 0, e.count, extent + e.payload_off_words,
                  e.payload_words));
  }
}

std::shared_ptr<TripleIndex::SliceRows> TripleIndex::MaterializeSlice(
    uint32_t p, Side side) const {
  Backing& b = *backing_;
  // Degraded mode: a predicate whose either side previously failed
  // integrity checks is quarantined — every subsequent touch of either
  // side fails fast with the same structured error (this query fails;
  // other predicates keep serving).
  if (b.quarantined[p].load(std::memory_order_relaxed) != 0) {
    throw SnapshotError(SnapshotErrorCode::kChecksum,
                        "predicate " + std::to_string(p) +
                            " quarantined after an earlier integrity "
                            "failure in " +
                            b.file->path());
  }
  const size_t slot = SlotOf(p, side);
  b.last_touch[slot].store(
      b.touch_seq.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  std::shared_ptr<SliceRows> result;
  {
    std::lock_guard<std::mutex> lk(b.mu[slot]);
    if (slices_[slot] != nullptr) return slices_[slot];
    auto slice = std::make_shared<SliceRows>();
    try {
      // The decode is the transient-I/O boundary: a retry starts from a
      // clear vector, so nothing partial survives a failed attempt.
      RetryTransient([&] {
        FaultRegistry::Instance().MaybeInject(FaultSiteId::kIndexMaterialize);
        DecodeSliceRows(p, side, slice.get());
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
    slices_[slot] = slice;
    b.resident[slot].store(1, std::memory_order_relaxed);
    result = std::move(slice);
  }
  // Budget enforcement outside mu[slot] (the spiller try_locks slice
  // mutexes, so holding one here would only shrink its victim pool).
  // `result` keeps this slice's use_count above 1, so the pass can never
  // reclaim the slice we are about to hand out.
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
  const size_t num_slots = slices_.size();
  size_t stalls = 0;
  while (b.meter->memory_used() > b.budget_bytes && stalls <= num_slots) {
    // Pick the coldest materialized slice (lock-free flag scan).
    size_t victim = num_slots;
    uint64_t victim_touch = ~0ull;
    for (size_t slot = 0; slot < num_slots; ++slot) {
      if (b.resident[slot].load(std::memory_order_relaxed) == 0) continue;
      uint64_t t = b.last_touch[slot].load(std::memory_order_relaxed);
      if (t < victim_touch) {
        victim_touch = t;
        victim = slot;
      }
    }
    if (victim == num_slots) break;  // nothing materialized
    std::unique_lock<std::mutex> lk(b.mu[victim], std::try_to_lock);
    // use_count is stable here: new pins require mu[victim], which we
    // hold; concurrent pin releases only make a spillable slice look
    // pinned (conservative skip).
    if (lk.owns_lock() && slices_[victim] != nullptr &&
        slices_[victim].use_count() == 1) {
      uint64_t bytes = slices_[victim]->heap_bytes;
      slices_[victim].reset();
      b.resident[victim].store(0, std::memory_order_relaxed);
      b.meter->ReleaseMemory(bytes);
      b.resident_bytes.fetch_sub(bytes, std::memory_order_relaxed);
      b.spills.fetch_add(1, std::memory_order_relaxed);
      released += bytes;
      stalls = 0;
      // Return the extent pages to the file: the "spill back to the mapped
      // extents" half of the contract. Clean read-only pages just drop;
      // the next materialization faults them back from disk.
      const SliceLoc& loc = b.loc[victim];
      b.file->Advise(loc.extent_off, loc.extent_words * 4,
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

void TripleIndex::Prefetch(uint32_t p, Side side) const {
  if (backing_ == nullptr || p >= num_predicates_) return;
  Backing& b = *backing_;
  const size_t slot = SlotOf(p, side);
  {
    std::lock_guard<std::mutex> lk(b.mu[slot]);
    if (slices_[slot] != nullptr) return;
  }
  const SliceLoc& loc = b.loc[slot];
  b.file->Advise(loc.dir_off,
                 static_cast<uint64_t>(loc.dir_rows) * sizeof(SnapRowDirEntry),
                 MappedFile::Advice::kWillNeed);
  b.file->Advise(loc.extent_off, loc.extent_words * 4,
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
  bool ok = true;
  for (uint32_t p = 0; p < num_predicates_; ++p) {
    if (!SliceChecksumsMatch(b.loc[SlotOf(p, Side::kSO)]) ||
        !SliceChecksumsMatch(b.loc[SlotOf(p, Side::kOS)])) {
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
  return FindRowIn(EnsureSlice(p, Side::kSO).rows, s);
}

const CompressedRow& TripleIndex::OsRow(uint32_t p, uint32_t o) const {
  if (p >= num_predicates_) return kEmptyRow;
  return FindRowIn(EnsureSlice(p, Side::kOS).rows, o);
}

BitMat TripleIndex::PoBitMat(uint32_t s) const {
  BitMat bm(num_predicates_, num_objects_);
  for (uint32_t p = 0; p < num_predicates_; ++p) {
    SlicePin pin = Slice(p, Side::kSO);
    const CompressedRow& row = FindRowIn(pin->rows, s);
    if (!row.IsEmpty()) bm.SetRow(p, row);
  }
  return bm;
}

BitMat TripleIndex::PsBitMat(uint32_t o) const {
  BitMat bm(num_predicates_, num_subjects_);
  for (uint32_t p = 0; p < num_predicates_; ++p) {
    SlicePin pin = Slice(p, Side::kOS);
    const CompressedRow& row = FindRowIn(pin->rows, o);
    if (!row.IsEmpty()) bm.SetRow(p, row);
  }
  return bm;
}

TripleIndex::SizeReport TripleIndex::ComputeSizeReport() const {
  SizeReport report;
  uint64_t rle_so = 0, rle_os = 0;
  for (uint32_t p = 0; p < num_predicates_; ++p) {
    for (Side side : {Side::kSO, Side::kOS}) {
      uint64_t& bytes = side == Side::kSO ? report.so_bytes : report.os_bytes;
      uint64_t& rle = side == Side::kSO ? rle_so : rle_os;
      SlicePin pin = Slice(p, side);
      for (const auto& [id, row] : pin->rows) {
        (void)id;
        bytes += row.PayloadBytes();
        rle +=
            CompressedRow::RleOnlyFromPositions(row.SetBits()).PayloadBytes();
        ++report.num_rows;
      }
    }
  }
  // All four families: SO + OS stored, P-O mirrors SO, P-S mirrors OS.
  report.hybrid_bytes = 2 * (report.so_bytes + report.os_bytes);
  report.rle_only_bytes = 2 * (rle_so + rle_os);
  return report;
}

}  // namespace lbr
