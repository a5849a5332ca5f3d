#include "bitmat/triple_index.h"

#include <algorithm>

#include "util/fault_injection.h"

namespace lbr {

namespace {
const CompressedRow kEmptyRow;

// Heap bytes of a materialized slice: vector storage plus owned payload.
// Views into the map own no payload, so a freshly materialized slice
// costs ~sizeof(pair) per row regardless of payload size.
uint64_t SliceHeapBytes(const TripleIndex::SliceRows& slice) {
  uint64_t bytes = sizeof(TripleIndex::SliceRows);
  bytes += slice.rows.capacity() * sizeof(std::pair<uint32_t, CompressedRow>);
  for (const auto& [id, row] : slice.rows) {
    (void)id;
    bytes += row.OwnedHeapBytes();
  }
  return bytes;
}

}  // namespace

const CompressedRow& TripleIndex::FindRowIn(
    const std::vector<std::pair<uint32_t, CompressedRow>>& rows, uint32_t id) {
  auto it = std::lower_bound(
      rows.begin(), rows.end(), id,
      [](const auto& pair, uint32_t key) { return pair.first < key; });
  if (it == rows.end() || it->first != id) return kEmptyRow;
  return it->second;
}

TripleIndex::SlicePin TripleIndex::Slice(uint32_t p, Side side) const {
  if (p >= num_predicates_) return nullptr;
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
  std::vector<uint32_t> extent_copy;
  if (b.paranoid) {
    // Paranoid mode: pread both regions into local buffers and verify and
    // decode the copies — a storage-level fault surfaces as a clean pread
    // error or checksum mismatch here, never a SIGBUS on a later mapped
    // access. The rows below own their payload: query BitMats copy them,
    // and a view into these buffers would dangle once they go.
    dir_copy.resize(dir_bytes);
    if (dir_bytes > 0) b.file->ReadAt(loc.dir_off, dir_bytes, dir_copy.data());
    dir = dir_copy.data();
    extent_copy.resize(loc.extent_words);
    if (loc.extent_words > 0) {
      b.file->ReadAt(loc.extent_off, loc.extent_words * 4,
                     extent_copy.data());
    }
    extent = extent_copy.data();
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
    if (b.paranoid) rows.back().second = rows.back().second.Owned();
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
  backing_->budget_bytes = bytes;
  backing_->meter = meter != nullptr ? meter : &backing_->own_meter;
  // Late installation: slices materialized before the budget was set (e.g.
  // by stats collection) join the accounting now.
  uint64_t resident =
      backing_->resident_bytes.load(std::memory_order_relaxed);
  if (resident > 0) backing_->meter->ChargeMemory(resident);
}

void TripleIndex::SetSpillHook(std::function<uint64_t()> hook) {
  backing_->spill_hook = std::move(hook);
}

void TripleIndex::Prefetch(uint32_t p, Side side) const {
  if (p >= num_predicates_) return;
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
  for (uint32_t p = 0; p < num_predicates_; ++p) {
    if (backing_->quarantined[p].load(std::memory_order_relaxed) != 0) {
      out.push_back(p);
    }
  }
  return out;
}

bool TripleIndex::VerifySlices(std::vector<uint32_t>* corrupt,
                               std::vector<uint32_t>* quarantined) const {
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
