#include "core/bestmatch.h"

#include <algorithm>
#include <unordered_map>

#include "util/exec_context.h"

namespace lbr {

namespace {

uint64_t HashKey(const uint64_t* row, const std::vector<int>& cols) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int c : cols) {
    h ^= row[c];
    h *= 0x100000001b3ull;
  }
  return h;
}

bool KeysEqual(const uint64_t* a, const uint64_t* b,
               const std::vector<int>& cols) {
  for (int c : cols) {
    if (a[c] != b[c]) return false;
  }
  return true;
}

}  // namespace

RowSlab BestMatch(const RowSlab& rows, const std::vector<int>& master_cols,
                  ExecContext* ctx) {
  if (rows.size() < 2) return rows;
  const size_t width = rows.width();

  // Bucket rows by the never-null key columns. On multi-million-row
  // results this pass alone outweighs the join, so it carries the stride
  // even though it is only linear.
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  buckets.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (ctx != nullptr) ctx->CheckCancel();
    buckets[HashKey(rows.row(i), master_cols)].push_back(i);
  }

  std::vector<bool> removed(rows.size(), false);
  // Local stride for the subsumption scan below: its body is a handful of
  // word compares, so even CheckCancel's relaxed load is measurable there;
  // the counter keeps the per-comparison cost at an increment and a mask.
  uint64_t scan_steps = 0;
  for (auto& [hash, indexes] : buckets) {
    (void)hash;
    if (indexes.size() < 2) continue;
    // Sort bucket members by descending non-null count: a row can only be
    // subsumed by a row with strictly more non-nulls, so each row needs to
    // be checked against earlier (fuller) rows only.
    std::stable_sort(indexes.begin(), indexes.end(),
                     [&rows, width](size_t a, size_t b) {
                       return CountNulls(rows.row(a), width) <
                              CountNulls(rows.row(b), width);
                     });
    for (size_t i = 1; i < indexes.size(); ++i) {
      // The inner scan below makes this loop quadratic in the bucket size;
      // on a subsumption-heavy result it dominates the whole query, so it
      // polls for cancellation independently of the join's checks.
      if (ctx != nullptr) ctx->CheckCancel();
      const uint64_t* candidate = rows.row(indexes[i]);
      for (size_t j = 0; j < i; ++j) {
        // One outer step alone scans up to i fuller rows, so the giant-
        // bucket case (empty master_cols) needs a check here as well.
        if (ctx != nullptr && (++scan_steps & 0x3F) == 0) ctx->CheckCancel();
        if (removed[indexes[j]]) continue;
        const uint64_t* fuller = rows.row(indexes[j]);
        if (!KeysEqual(candidate, fuller, master_cols)) continue;  // hash collision
        if (IsSubsumedBy(candidate, fuller, width)) {
          removed[indexes[i]] = true;
          break;
        }
      }
    }
  }

  RowSlab out(width);
  out.Reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (ctx != nullptr) ctx->CheckCancel();
    if (!removed[i]) out.Append(rows.row(i));
  }
  return out;
}

}  // namespace lbr
