// Micro-benchmarks for the bit-level substrate: compressed-row encode/AND,
// BitMat fold/unfold, and the semi-join / clustered-semi-join primitives
// (Algorithms 5.2/5.3) that prune_triples is built on.
//
// The *_PerBit benchmarks reimplement each operation with the pre-kernel
// per-bit loops (ForEachSetBit + single-bit Set/Get); their *_Kernel
// counterparts run the shared word-parallel kernels of util/bitops.h the
// engine now uses. CI runs this binary as a smoke test; the kernel variants
// beating the per-bit baselines on fold/unfold ops is an acceptance
// criterion of the word-parallel refactor.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bitmat/bitmat.h"
#include "core/prune.h"
#include "util/bitops.h"
#include "util/bitvector.h"
#include "util/compressed_row.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace lbr {
namespace {

std::vector<uint32_t> RandomPositions(Rng* rng, uint32_t width,
                                      double density) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < width; ++i) {
    if (rng->Chance(density)) out.push_back(i);
  }
  return out;
}

void BM_CompressedRowEncode(benchmark::State& state) {
  Rng rng(1);
  double density = static_cast<double>(state.range(0)) / 100.0;
  auto positions = RandomPositions(&rng, 1 << 16, density);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompressedRow::FromPositions(positions));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(positions.size()));
}
BENCHMARK(BM_CompressedRowEncode)->Arg(1)->Arg(10)->Arg(50);

void BM_CompressedRowAndWith(benchmark::State& state) {
  Rng rng(2);
  double density = static_cast<double>(state.range(0)) / 100.0;
  CompressedRow row =
      CompressedRow::FromPositions(RandomPositions(&rng, 1 << 16, density));
  Bitvector mask(1 << 16);
  for (uint32_t p : RandomPositions(&rng, 1 << 16, 0.5)) mask.Set(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(row.AndWith(mask));
  }
}
BENCHMARK(BM_CompressedRowAndWith)->Arg(1)->Arg(10)->Arg(50);

// Positions forming clustered 1-runs (the RDF row shape the hybrid RLE is
// built for): run-encoded rows are where word-at-a-time decode pays off.
std::vector<uint32_t> ClusteredPositions(Rng* rng, uint32_t width,
                                         double density) {
  std::vector<uint32_t> out;
  uint32_t pos = 0;
  while (pos < width) {
    if (rng->Chance(density * 0.05)) {
      uint32_t len = 16 + static_cast<uint32_t>(rng->Uniform(112));
      for (uint32_t i = 0; i < len && pos + i < width; ++i) {
        out.push_back(pos + i);
      }
      pos += len;
    } else {
      ++pos;
    }
  }
  return out;
}

BitMat RandomBitMat(uint64_t seed, uint32_t rows, uint32_t cols,
                    double density) {
  Rng rng(seed);
  BitMat bm(rows, cols);
  for (uint32_t r = 0; r < rows; ++r) {
    auto positions = ClusteredPositions(&rng, cols, density);
    if (!positions.empty()) bm.SetRow(r, positions);
  }
  return bm;
}

// --- Per-bit baselines: the pre-kernel implementations, bit loop for bit
// loop, used as the comparison target for the word-parallel kernels.

void OrIntoPerBit(const CompressedRow& row, Bitvector* out) {
  row.ForEachSetBit([out](uint32_t p) { out->Set(p); });
}

CompressedRow AndWithPerBit(const CompressedRow& row, const Bitvector& mask) {
  std::vector<uint32_t> kept;
  kept.reserve(row.Count());
  row.ForEachSetBit([&](uint32_t p) {
    if (p < mask.size() && mask.Get(p)) kept.push_back(p);
  });
  return CompressedRow::FromPositions(kept);
}

Bitvector FoldColPerBit(const BitMat& bm) {
  Bitvector out(bm.num_cols());
  bm.ForEachBit([&out](uint32_t, uint32_t c) { out.Set(c); });
  return out;
}

void UnfoldColPerBit(const Bitvector& mask, BitMat* bm) {
  for (uint32_t r = 0; r < bm->num_rows(); ++r) {
    if (bm->Row(r).IsEmpty()) continue;
    bm->SetRow(r, AndWithPerBit(bm->Row(r), mask));
  }
}

// --- Row kernels vs per-bit baselines.

CompressedRow BenchRow() {
  Rng rng(21);
  return CompressedRow::FromPositions(
      ClusteredPositions(&rng, 1 << 16, 0.5));
}

Bitvector BenchMask() {
  Rng rng(22);
  Bitvector mask(1 << 16);
  for (uint32_t p : RandomPositions(&rng, 1 << 16, 0.5)) mask.Set(p);
  return mask;
}

void BM_RowOrInto_PerBit(benchmark::State& state) {
  CompressedRow row = BenchRow();
  Bitvector out(1 << 16);
  for (auto _ : state) {
    out.Clear();
    OrIntoPerBit(row, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(row.Count()));
}
BENCHMARK(BM_RowOrInto_PerBit);

void BM_RowOrInto_Kernel(benchmark::State& state) {
  CompressedRow row = BenchRow();
  Bitvector out(1 << 16);
  for (auto _ : state) {
    out.Clear();
    row.OrInto(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(row.Count()));
}
BENCHMARK(BM_RowOrInto_Kernel);

void BM_RowAndWith_PerBit(benchmark::State& state) {
  CompressedRow row = BenchRow();
  Bitvector mask = BenchMask();
  for (auto _ : state) {
    benchmark::DoNotOptimize(AndWithPerBit(row, mask));
  }
}
BENCHMARK(BM_RowAndWith_PerBit);

void BM_RowAndWith_Kernel(benchmark::State& state) {
  CompressedRow row = BenchRow();
  Bitvector mask = BenchMask();
  for (auto _ : state) {
    benchmark::DoNotOptimize(row.AndWith(mask));
  }
}
BENCHMARK(BM_RowAndWith_Kernel);

void BM_RowAndWith_InPlace(benchmark::State& state) {
  CompressedRow row = BenchRow();
  Bitvector mask = BenchMask();
  std::vector<uint32_t> scratch;
  for (auto _ : state) {
    CompressedRow copy = row;
    copy.AndWithInPlace(mask, &scratch);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_RowAndWith_InPlace);

// --- BitMat fold/unfold: kernel path vs per-bit baseline.

void BM_BitMatFoldCol_PerBit(benchmark::State& state) {
  BitMat bm = RandomBitMat(3, 4096, 4096, 0.02);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FoldColPerBit(bm));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(bm.Count()));
}
BENCHMARK(BM_BitMatFoldCol_PerBit);

void BM_BitMatFoldCol_Kernel(benchmark::State& state) {
  BitMat bm = RandomBitMat(3, 4096, 4096, 0.02);
  ExecContext ctx;
  ScratchBits out(&ctx);
  BitMat::RowHandle row0 = bm.SharedRow(0);
  for (auto _ : state) {
    // Re-setting a row bumps the version and defeats the fold memo, so this
    // measures the actual word-parallel fold (memo hits are timed below).
    bm.SetRowShared(0, row0);
    bm.FoldInto(Dim::kCol, out.get());
    benchmark::DoNotOptimize(*out.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(bm.Count()));
}
BENCHMARK(BM_BitMatFoldCol_Kernel);

void BM_BitMatFoldCol_Memoized(benchmark::State& state) {
  // The version-stamped fold memo: repeated folds of an unchanged BitMat
  // are a word copy of the cached result, no row iteration.
  BitMat bm = RandomBitMat(3, 4096, 4096, 0.02);
  ExecContext ctx;
  ScratchBits out(&ctx);
  bm.FoldInto(Dim::kCol, out.get());  // mark (second-touch policy)
  bm.FoldInto(Dim::kCol, out.get());  // store the memo
  for (auto _ : state) {
    bm.FoldInto(Dim::kCol, out.get());
    benchmark::DoNotOptimize(*out.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(bm.Count()));
}
BENCHMARK(BM_BitMatFoldCol_Memoized);

void BM_BitMatCowCopyVsDeepCopy(benchmark::State& state) {
  // CoW snapshot copy (arg 0) vs the pre-CoW deep copy (arg 1) — the
  // TP-cache hit-path difference, isolated from key lookup.
  BitMat bm = RandomBitMat(3, 4096, 4096, 0.02);
  const bool deep = state.range(0) != 0;
  for (auto _ : state) {
    if (deep) {
      benchmark::DoNotOptimize(bm.DeepCopy());
    } else {
      BitMat copy = bm;
      benchmark::DoNotOptimize(copy);
    }
  }
}
BENCHMARK(BM_BitMatCowCopyVsDeepCopy)->Arg(0)->Arg(1);

void BM_BitMatUnfoldCol_PerBit(benchmark::State& state) {
  Rng rng(4);
  Bitvector mask(4096);
  for (uint32_t p : RandomPositions(&rng, 4096, 0.5)) mask.Set(p);
  BitMat source = RandomBitMat(5, 4096, 4096, 0.02);
  for (auto _ : state) {
    state.PauseTiming();
    BitMat bm = source;
    state.ResumeTiming();
    UnfoldColPerBit(mask, &bm);
    benchmark::DoNotOptimize(bm);
  }
}
BENCHMARK(BM_BitMatUnfoldCol_PerBit);

void BM_BitMatUnfoldCol_Kernel(benchmark::State& state) {
  Rng rng(4);
  Bitvector mask(4096);
  for (uint32_t p : RandomPositions(&rng, 4096, 0.5)) mask.Set(p);
  BitMat source = RandomBitMat(5, 4096, 4096, 0.02);
  ExecContext ctx;
  for (auto _ : state) {
    state.PauseTiming();
    BitMat bm = source;
    state.ResumeTiming();
    bm.Unfold(mask, Dim::kCol, &ctx);
    benchmark::DoNotOptimize(bm);
  }
}
BENCHMARK(BM_BitMatUnfoldCol_Kernel);

void BM_BitMatTranspose(benchmark::State& state) {
  BitMat bm = RandomBitMat(6, 2048, 2048, 0.02);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bm.Transposed());
  }
}
BENCHMARK(BM_BitMatTranspose);

TpState MakeTpState(int id, BitMat bm, DomainKind row_kind,
                    DomainKind col_kind, const std::string& rv,
                    const std::string& cv) {
  TpState st;
  st.tp_id = id;
  st.mat.bm = std::move(bm);
  st.mat.row_kind = row_kind;
  st.mat.col_kind = col_kind;
  st.mat.row_var = rv;
  st.mat.col_var = cv;
  return st;
}

void BM_SemiJoin(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    TpState master =
        MakeTpState(0, RandomBitMat(7, 4096, 4096, 0.01),
                    DomainKind::kSubject, DomainKind::kObject, "a", "j");
    TpState slave =
        MakeTpState(1, RandomBitMat(8, 4096, 4096, 0.02),
                    DomainKind::kSubject, DomainKind::kObject, "j", "b");
    state.ResumeTiming();
    // Slave's ?j is its row dimension (subject); master's ?j is its column
    // dimension (object): the cross-domain alignment path.
    SemiJoin("j", &slave, master, /*num_common=*/4096);
    benchmark::DoNotOptimize(slave.mat.bm.Count());
  }
}
BENCHMARK(BM_SemiJoin);

void BM_ClusteredSemiJoin(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<TpState> tps;
    for (int i = 0; i < 3; ++i) {
      tps.push_back(MakeTpState(
          i, RandomBitMat(9 + static_cast<uint64_t>(i), 4096, 4096, 0.02),
          DomainKind::kSubject, DomainKind::kObject, "j",
          "x" + std::to_string(i)));
    }
    std::vector<TpState*> cluster{&tps[0], &tps[1], &tps[2]};
    state.ResumeTiming();
    ClusteredSemiJoin("j", cluster, 4096);
    benchmark::DoNotOptimize(tps[0].mat.bm.Count());
  }
}
BENCHMARK(BM_ClusteredSemiJoin);

// --- Dispatched kernel table: forced-scalar (_Kernel, the pre-SIMD word
// loops) vs the runtime-dispatched backend (_Simd — sse4.2 where the CPU
// supports it, otherwise the same scalar table; DESIGN.md §8). The
// regression gate tracks both rows, so a dispatch misconfiguration that
// silently drops to scalar shows up as a _Simd slowdown; the JSON context's
// "simd" key names the tier the _Simd rows ran on.

// Pins the scalar table for a _Kernel benchmark, restoring startup
// selection on scope exit.
struct ScalarGuard {
  ScalarGuard() { bitops::ForceKernelBackend(bitops::KernelBackend::kScalar); }
  ~ScalarGuard() { bitops::ResetKernelBackend(); }
};

std::vector<uint64_t> RandomWordBuffer(uint64_t seed, size_t words) {
  Rng rng(seed);
  std::vector<uint64_t> out(words);
  for (uint64_t& w : out) w = rng.Next();
  return out;
}

constexpr size_t kKernelWords = size_t{1} << 14;  // 128 KiB per buffer

void AndWordsBody(benchmark::State& state) {
  std::vector<uint64_t> dst = RandomWordBuffer(31, kKernelWords);
  std::vector<uint64_t> src = RandomWordBuffer(32, kKernelWords);
  for (auto _ : state) {
    bitops::AndWords(dst.data(), src.data(), kKernelWords);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kKernelWords * 8));
}

void BM_WordsAnd_Kernel(benchmark::State& state) {
  ScalarGuard guard;
  AndWordsBody(state);
}
BENCHMARK(BM_WordsAnd_Kernel);

void BM_WordsAnd_Simd(benchmark::State& state) { AndWordsBody(state); }
BENCHMARK(BM_WordsAnd_Simd);

void PopcountWordsBody(benchmark::State& state) {
  std::vector<uint64_t> buf = RandomWordBuffer(33, kKernelWords);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitops::PopcountWords(buf.data(), kKernelWords));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kKernelWords * 8));
}

void BM_WordsPopcount_Kernel(benchmark::State& state) {
  ScalarGuard guard;
  PopcountWordsBody(state);
}
BENCHMARK(BM_WordsPopcount_Kernel);

void BM_WordsPopcount_Simd(benchmark::State& state) {
  PopcountWordsBody(state);
}
BENCHMARK(BM_WordsPopcount_Simd);

void AppendAndSetBitsBody(benchmark::State& state) {
  // ~2% density after the AND: the candidate ∧ constraint shape of the
  // join's enumeration, where most words die in the testz block skip.
  Rng rng(34);
  std::vector<uint64_t> a(kKernelWords, 0), b(kKernelWords, 0);
  for (size_t i = 0; i < kKernelWords; ++i) {
    if (rng.Chance(0.3)) a[i] = rng.Next() & rng.Next();
    if (rng.Chance(0.3)) b[i] = rng.Next() & rng.Next();
  }
  std::vector<uint32_t> out;
  for (auto _ : state) {
    out.clear();
    bitops::AppendAndSetBits(a.data(), b.data(), kKernelWords, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kKernelWords * 16));
}

void BM_AppendAndSetBits_Kernel(benchmark::State& state) {
  ScalarGuard guard;
  AppendAndSetBitsBody(state);
}
BENCHMARK(BM_AppendAndSetBits_Kernel);

void BM_AppendAndSetBits_Simd(benchmark::State& state) {
  AppendAndSetBitsBody(state);
}
BENCHMARK(BM_AppendAndSetBits_Simd);

void IntersectSortedBody(benchmark::State& state) {
  Rng rng(35);
  auto a = RandomPositions(&rng, 1 << 16, 0.25);
  auto b = RandomPositions(&rng, 1 << 16, 0.25);
  std::vector<uint32_t> out(std::min(a.size(), b.size()) + 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitops::IntersectSortedU32(
        a.data(), a.size(), b.data(), b.size(), out.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}

void BM_IntersectSortedU32_Kernel(benchmark::State& state) {
  ScalarGuard guard;
  IntersectSortedBody(state);
}
BENCHMARK(BM_IntersectSortedU32_Kernel);

void BM_IntersectSortedU32_Simd(benchmark::State& state) {
  IntersectSortedBody(state);
}
BENCHMARK(BM_IntersectSortedU32_Simd);

void BM_BitvectorAnd(benchmark::State& state) {
  Rng rng(10);
  Bitvector a(1 << 20), b(1 << 20);
  for (size_t i = 0; i < (1 << 20); i += 3) a.Set(i);
  for (size_t i = 0; i < (1 << 20); i += 5) b.Set(i);
  for (auto _ : state) {
    Bitvector c = a;
    c.And(b);
    benchmark::DoNotOptimize(c.Count());
  }
  state.SetBytesProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_BitvectorAnd);

}  // namespace
}  // namespace lbr

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("simd", lbr::bitops::ActiveKernelName());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
