#include "bitmat/tp_cache.h"

#include <memory>
#include <vector>

#include "util/fault_injection.h"

namespace lbr {

namespace {

// A snapshot of `cached` named for the caller's `tp`: the key normalizes
// variable names away, so the layout is taken afresh. O(non-empty rows)
// handle bumps, no payload copy.
TpBitMat SnapshotFor(const TpBitMat& cached, const TripleIndex& index,
                     const TriplePattern& tp, bool prefer_subject_rows) {
  TpBitMat copy;
  static_cast<TpLayout&>(copy) = LayoutOf(index, tp, prefer_subject_rows);
  copy.bm = cached.bm;
  return copy;
}

// Approximate heap bytes of a cached TpBitMat: the matrix's sparse row
// arrays, non-empty-row words and row objects (BitMat::HeapBytes) plus the
// payload its arena holds (ArenaBytes). Rows that are zero-copy views into
// a mapped snapshot own nothing and cost only their slot — exactly the
// marginal heap the entry pins, which is what the shared meter tracks.
uint64_t TpBitMatHeapBytes(const TpBitMat& t) {
  return sizeof(TpBitMat) + t.bm.HeapBytes() + t.bm.ArenaBytes();
}

}  // namespace

TpCache::TpCache(uint64_t triple_budget)
    : lru_(triple_budget, [this](const TpBitMat& entry) {
        if (meter_ != nullptr) meter_->ReleaseMemory(TpBitMatHeapBytes(entry));
      }) {}

std::string TpCache::KeyFor(const TriplePattern& tp,
                            bool prefer_subject_rows) {
  // Variable names do not affect the loaded bits, only the var<->dimension
  // mapping, which a hit takes from LayoutOf; normalize them out of the key
  // so that (?a :p ?b) and (?x :p ?y) share an entry.
  auto norm = [](const PatternTerm& t, const char* placeholder) {
    return t.is_var ? std::string(placeholder) : t.term.ToString();
  };
  std::string key;
  key.reserve(64);
  key += norm(tp.s, "?s");
  key += '\x1f';
  key += norm(tp.p, "?p");
  key += '\x1f';
  key += norm(tp.o, "?o");
  key += '\x1f';
  // Same-variable TPs load a diagonal; they must not share entries with
  // distinct-variable TPs.
  key += (tp.s.is_var && tp.o.is_var && tp.s.var == tp.o.var) ? "diag"
                                                              : "full";
  key += '\x1f';
  key += prefer_subject_rows ? 'S' : 'O';
  return key;
}

TpBitMat TpCache::GetOrLoad(const TripleIndex& index, const Dictionary& dict,
                            const TriplePattern& tp,
                            bool prefer_subject_rows) {
  std::shared_ptr<const TpBitMat> entry =
      lru_.GetOrLoad(KeyFor(tp, prefer_subject_rows), [&] {
        // Transient-fault boundary: an injected `tp_cache.load` fault is
        // retried with bounded backoff. Nothing partial escapes a failed
        // attempt — the load builds into a local.
        auto loaded = std::make_shared<const TpBitMat>(RetryTransient([&] {
          FaultRegistry::Instance().MaybeInject(FaultSiteId::kTpCacheLoad);
          return LoadTpBitMat(index, dict, tp, prefer_subject_rows);
        }));
        if (meter_ != nullptr) meter_->ChargeMemory(TpBitMatHeapBytes(*loaded));
        return SingleFlightLru<TpBitMat>::Loaded{loaded, loaded->bm.Count()};
      });
  return SnapshotFor(*entry, index, tp, prefer_subject_rows);
}

TpBitMat TpCache::GetOrLoadMasked(const TripleIndex& index,
                                  const Dictionary& dict,
                                  const TriplePattern& tp,
                                  bool prefer_subject_rows,
                                  const ActiveMasks& masks,
                                  ExecContext* ctx) {
  if (masks.row_mask == nullptr && masks.col_mask == nullptr) {
    return GetOrLoad(index, dict, tp, prefer_subject_rows);
  }
  std::shared_ptr<const TpBitMat> entry =
      lru_.Find(KeyFor(tp, prefer_subject_rows));
  if (entry == nullptr) {
    // Miss: load masked directly (cheapest) and leave warming to unmasked
    // queries — a masked load is query-specific and never inserted, so it
    // takes no single-flight slot either.
    return LoadTpBitMat(index, dict, tp, prefer_subject_rows, masks, ctx);
  }

  TpBitMat out;
  static_cast<TpLayout&>(out) = LayoutOf(index, tp, prefer_subject_rows);
  out.bm = BitMat(out.num_rows, out.num_cols);
  ScratchPositions scratch(ctx);
  entry->bm.ForEachRow([&](uint32_t r, const BitMat::RowHandle& row) {
    if (masks.row_mask != nullptr &&
        (r >= masks.row_mask->size() || !masks.row_mask->Get(r))) {
      return;
    }
    if (masks.col_mask == nullptr) {
      out.bm.SetRowShared(r, row);  // row survives whole: share the handle
    } else {
      SetRowMaskedShared(r, row, *masks.col_mask, scratch.get(), &out.bm);
    }
  });
  return out;
}

void TpCache::SetMemoryAccounting(QueryControl* meter,
                                  uint64_t budget_bytes) {
  meter_ = meter;
  byte_budget_ = budget_bytes;
}

uint64_t TpCache::SpillToFit() {
  if (meter_ == nullptr || byte_budget_ == 0) return 0;
  // Try-lock only: the caller is the index's spill pass running under
  // memory pressure mid-query, and waiting for another engine's lookup
  // would stall the very query the spill serves. The eviction callback
  // releases each entry's bytes, which the predicate watches.
  uint64_t released = 0;
  for (const auto& entry : lru_.TryEvictWhile(
           [&] { return meter_->memory_used() > byte_budget_; })) {
    released += TpBitMatHeapBytes(*entry);
  }
  return released;
}

}  // namespace lbr
