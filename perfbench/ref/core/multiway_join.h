#ifndef LBR_CORE_MULTIWAY_JOIN_H_
#define LBR_CORE_MULTIWAY_JOIN_H_

#include <array>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bitmat/bitmat.h"
#include "core/global_ids.h"
#include "core/gosn.h"
#include "core/row.h"
#include "core/tp_state.h"
#include "rdf/dictionary.h"
#include "util/exec_context.h"

namespace lbr {

/// The multi-way pipelined join of Algorithm 5.4.
///
/// TPs are processed in the stps order (selective absolute masters first,
/// then the master-slave hierarchy); variable bindings live in vmap (one
/// entry stack per variable, tagged by the binding TP); no intermediate
/// tables or hash joins are built. Unmatched slave TPs produce NULL
/// bindings; unmatched absolute-master TPs roll the branch back.
///
/// Candidate enumeration (DESIGN.md §6): before recursing over the set
/// bits of a candidate row, the row is intersected word-parallel with the
/// constraints that unvisited absolute-master TPs sharing the variable
/// already impose (their fold over the variable's dimension, or — when
/// their other dimension is bound — the exact row/column). Candidates a
/// master would roll back are skipped before the recursion is paid, which
/// shrinks the branching factor without changing a single emitted row.
///
/// At emission time the engine's decision flags drive:
///  - nullification: repair of partially-NULL slave groups (required for
///    cyclic queries with more than one jvar per slave — Lemma 3.4);
///  - FaN (filter-and-nullification, Section 5.2): each scoped filter either
///    drops the row (scope touches an absolute master) or NULLs its scope's
///    supernode closure.
class MultiwayJoin {
 public:
  /// Receives each result row plus whether nullification/FaN nulled part of
  /// it. Nulled rows are phantoms of reordered enumeration: the engine must
  /// deduplicate them (at full-row granularity) and run best-match.
  using Sink = std::function<void(const RawRow&, bool nulled)>;

  struct Options {
    /// Run the nullification repair at emit time.
    bool nullification = false;
    /// Scoped filters to apply FaN-style (innermost first).
    std::vector<ScopedFilter> filters;
    /// Candidate enumeration strategy (ablation knob; results identical).
    JoinEnumMode enum_mode = JoinEnumMode::kBlock;
    /// Distinct columns of one TP extracted lazily before the transpose
    /// cache falls forward to a full BitMat::Transposed() materialization.
    uint32_t lazy_transpose_threshold = 64;
  };

  /// The join keeps its own per-emit scratch buffers (below), so
  /// steady-state emission does not touch the heap.
  MultiwayJoin(const Gosn& gosn, const GlobalIds& ids, const Dictionary& dict,
               std::vector<TpState>* tps, std::vector<int> stps_order,
               Options options);

  /// Variable table: dense column indexes for every query variable, in a
  /// deterministic (sorted) order.
  const std::vector<std::string>& var_names() const { return var_names_; }
  int VarIndex(const std::string& name) const;

  /// Runs the join, emitting each final row to `sink`. Returns the number
  /// of rows emitted. `ctx` (optional) supplies pooled scratch for the
  /// candidate-intersection masks and position buffers; without it every
  /// Recurse level falls back to function-local buffers.
  uint64_t Run(const Sink& sink, ExecContext* ctx = nullptr);

  /// True if any row needed nullification repair or FaN nulling — the
  /// engine must then run best-match over the emitted rows.
  bool nulling_applied() const { return nulling_applied_; }

  /// Column indexes of variables bound by absolute-master TPs (never NULL);
  /// used as the best-match grouping key.
  std::vector<int> MasterColumns() const;

  /// Transposed rows served from the lazy per-column cache vs full
  /// materializations (telemetry for tests/benches; cumulative over Runs).
  uint64_t transpose_cols_built() const { return transpose_cols_built_; }
  uint64_t transpose_full_builds() const { return transpose_full_builds_; }

  /// Enumeration telemetry (cumulative over Runs, intersect/block modes):
  /// candidates entering the constrained enumerations, and how many the
  /// static fold masks / bound-master rows eliminated before recursion.
  uint64_t enum_candidates() const { return enum_candidates_; }
  uint64_t enum_pruned_static() const { return enum_pruned_static_; }
  uint64_t enum_pruned_bound() const { return enum_pruned_bound_; }

  /// Block-mode telemetry (cumulative over Runs): master blocks iterated,
  /// and slave-expansion memo hits/misses (DESIGN.md §8).
  uint64_t enum_blocks() const { return enum_blocks_; }
  uint64_t slave_memo_hits() const { return slave_memo_hits_; }
  uint64_t slave_memo_misses() const { return slave_memo_misses_; }
  /// Child probes elided because the parent block's bound checks already
  /// proved the exact bit (block mode only).
  uint64_t probe_elisions() const { return probe_elisions_; }

 private:
  struct Entry {
    int tp_id;
    uint64_t value;  // kNullBinding for NULL.
  };

  /// The fold part of a dimension's candidate constraint: the intersection
  /// of the (aligned) folds of every absolute-master TP sharing the
  /// dimension's variable. A variable is only ever enumerated freely while
  /// every master sharing it is unvisited (a visited TP binds its
  /// variables), so the contributing set never depends on the recursion
  /// state — one mask per (TP, dim) serves every Recurse node. Entries
  /// persist across Runs, stamped with each contributing BitMat's
  /// version() (like the fold memo and the transpose cache): a mutation of
  /// any contributor between Runs triggers a rebuild.
  struct StaticMask {
    bool built = false;
    /// Run sequence number of the last source-version validation: BitMats
    /// never mutate mid-Run, so one check per Run covers every consult —
    /// block descent otherwise re-validates once per block.
    uint64_t validated_run = 0;
    bool restricted = false;  ///< At least one master constrains the var.
    /// Mask too dense to pay for itself: most of the domain survives, so
    /// the per-node AND would filter next to nothing — skip it (bound-row
    /// filtering still applies). Decided once per build from Count().
    bool inert = false;
    Bitvector mask;
    /// (tp_id, version at build time) of every folded contributor.
    std::vector<std::pair<int, uint64_t>> sources;
    /// Single-variable contributors (tp_id < 64) whose fold was ANDed in.
    /// A unit TP's fold over its variable dimension is exactly its bit
    /// content at column 0 — the bit its fully-bound probe tests — so a
    /// candidate passing this mask is a guaranteed probe hit for them and
    /// they qualify for probe elision (see VisitBlock).
    uint64_t unit_verified = 0;
  };

  /// One absolute-master TP constraining a variable, precomputed in the
  /// constructor so the per-node constraint passes never re-derive the
  /// var→dimension mapping (or compare variable names) in the hot path.
  struct MasterConstraint {
    int tp_id;
    Dim vdim;               ///< Dimension of the shared var in that TP.
    DomainKind kind;        ///< Domain kind of that dimension.
    int other_var;          ///< Var of the other dimension (-1 if unit).
    DomainKind other_kind;  ///< Its domain kind.
  };

  /// Lazily built transpose of one TP's BitMat: only the columns the join
  /// actually visits are extracted (as shared row handles); past
  /// `lazy_transpose_threshold` distinct columns the cache falls forward
  /// to a full Transposed() matrix. Version-stamped like the fold memo —
  /// a mutation of the source BitMat between Runs orphans the entry.
  struct TransposeCache {
    bool valid = false;  ///< An entry exists (version is meaningful).
    uint64_t version = 0;
    bool full = false;
    BitMat full_mat;  // when `full`
    /// Extracted columns, sorted by column index; at most
    /// lazy_transpose_threshold entries ever exist (then the cache falls
    /// forward), so the structure stays O(visited columns), never
    /// O(num_cols). A present entry with a null handle is an extracted
    /// empty column.
    std::vector<std::pair<uint32_t, BitMat::RowHandle>> cols;
  };

  /// One (row_value, col_value) match of a TP's enumeration — the values
  /// VisitWith would bind. Blocks and slave-memo entries are sequences of
  /// these, in enumeration order.
  struct BindingPair {
    uint64_t row;
    uint64_t col;
  };

  void Recurse(size_t visited_count);
  void Emit();

  /// The TP Recurse would descend on next: the first non-visited TP (in
  /// stps order) with at least one bound variable (Alg 5.4 lines 6-11).
  /// Depends only on visited_ flags and binding *presence* — both invariant
  /// across a block's iterations once its placeholder entries are pushed —
  /// so block descent computes it once per block, not once per candidate.
  int ChooseNextTp() const;

  /// The Recurse body below the TP selection: enumerates `chosen`'s
  /// matches under the current bindings and descends (per-pair, block, or
  /// memoized-replay depending on mode and master/slave role).
  void RecurseOn(int chosen, size_t visited_count);

  /// Enumerates every (row_value, col_value) match of `chosen` under the
  /// current bindings — the case chain of Alg 5.4 with the DESIGN.md §6
  /// candidate intersection — calling `emit` for each in enumeration
  /// order. Returns false when nothing matched.
  template <typename EmitPair>
  bool EnumerateMatches(int chosen, EmitPair&& emit);

  // Pushes an entry for every variable of `tp` and recurses; pops after.
  void VisitWith(const TpState& tp, uint64_t row_value, uint64_t col_value,
                 size_t visited_count);
  void VisitNull(const TpState& tp, size_t visited_count);

  /// Block-mode fast path for a TP whose variable dimensions are all bound:
  /// at most one (row, col) pair can match, so the probe is a couple of
  /// local-id translations and one bit test — the generic EnumerateMatches
  /// frame (constraint resolution closures, candidate accounting, block
  /// buffering) costs more than the probe itself. Emits the identical
  /// match (or miss) the generic path would. Returns whether it matched;
  /// the caller handles rollback/NULL. `re`/`ce` are the FirstEntry
  /// bindings of the row/col variables (ce unused when cv < 0 or diagonal).
  bool ProbeBoundAndVisit(const TpState& tp, int rv, int cv, const Entry* re,
                          const Entry* ce, size_t visited_count);

  /// Block descent (DESIGN.md §8): pushes `tp`'s entries once, resolves the
  /// child TP once, then iterates the block in a tight loop rewriting the
  /// entry values in place. Emission order is identical to per-pair
  /// VisitWith calls. `block` must be non-empty. `verified_masters` is the
  /// bit set of master TPs whose bound checks were applied to every pair of
  /// this block during enumeration: if the child TP is among them and ends
  /// up fully bound, its probe is guaranteed to hit (the check tested the
  /// exact bit the probe would), so the loop binds the child's entries in
  /// place and descends two levels per iteration with no probe at all.
  void VisitBlock(const TpState& tp, const std::vector<BindingPair>& block,
                  size_t visited_count, uint64_t verified_masters);

  /// Replays a recorded slave expansion per-bit: VisitWith per pair, or
  /// VisitNull when the expansion is empty (the NULL-row contract).
  void ReplayPairs(const TpState& tp, const std::vector<BindingPair>& pairs,
                   size_t visited_count);

  // First entry (master-most binding) for a variable; nullptr if no entry.
  const Entry* FirstEntry(int var) const;

  /// Column `col` of TP `tp_id`'s BitMat as a compressed row over the row
  /// domain, served from the lazy transpose cache. The reference stays
  /// valid until the cache entry is invalidated (source version change).
  const CompressedRow& TransposedColumn(int tp_id, uint32_t col);

  /// The cached static fold mask for enumerating `var` on `dim` of TP
  /// `chosen_tp` (domain `dst_kind`/`dst_size`). Returns nullptr when no
  /// absolute master shares the variable — enumerate unconstrained.
  const Bitvector* StaticFoldMask(int var, int chosen_tp, Dim dim,
                                  DomainKind dst_kind, uint32_t dst_size);

  /// One resolved bound-row constraint: an unvisited absolute-master TP
  /// whose other dimension is bound right now. `row` is the bound row when
  /// the variable lives on the TP's columns; null means the variable lives
  /// on its rows (test bm->Test(p, bound), or merge against the lazy
  /// transposed column in the buffered path).
  static constexpr int kMaxBoundChecks = 4;
  struct BoundCheck {
    int tp_id;
    const BitMat* bm;
    const CompressedRow* row;
    uint32_t bound;
    bool cross;  ///< S/O cross-domain: candidates >= |Vso| always fail.
  };

  /// Resolves the currently-applicable bound-row constraints on `var`.
  /// Returns -1 when some master can never match under the current
  /// bindings (no candidate survives; the branch is bound to roll back),
  /// else the number of checks filled (capped at kMaxBoundChecks — a
  /// subset of constraints is still a sound filter).
  int PrepareBoundChecks(int var, int chosen_tp, DomainKind dst_kind,
                         std::array<BoundCheck, kMaxBoundChecks>* out);

  /// True iff candidate `p` passes every prepared check — the exact Tests
  /// the per-bit path would pay one recursion level down.
  bool PassesBoundChecks(const std::array<BoundCheck, kMaxBoundChecks>& checks,
                         int n, uint32_t p) const;

  /// Buffered form: drops from `positions` (sorted ascending) every
  /// candidate a check rejects — linear merge against the constraint row
  /// (lazy transposed column when the variable lives on the TP's rows).
  void FilterPositions(const std::array<BoundCheck, kMaxBoundChecks>& checks,
                       int n, std::vector<uint32_t>* positions);

  /// The shared candidate-filter core of EnumerateMatches: runs `cands`
  /// through the static fold mask and prepared bound checks (inline below
  /// kBufferedThreshold, word-parallel collection above it) and calls
  /// `visit` for each surviving position, in ascending order. Identical
  /// filtering, counters, and visit order on every caller.
  template <typename Cands, typename Visit>
  void EnumeratePrepared(const Cands& cands, uint32_t size,
                         uint64_t approx_count, const Bitvector* sm,
                         const std::array<BoundCheck, kMaxBoundChecks>& checks,
                         int nchecks, Visit&& visit);

  /// Per-block template for a child TP with exactly one free variable
  /// dimension (DESIGN.md §8): everything about the child's enumeration
  /// that cannot change across the parent block's iterations — the static
  /// fold mask (one version check instead of one per pair), the
  /// bound-check list structure, and the fully-resolved ancestor-bound
  /// checks — is resolved once. Per pair only the pair-sourced values are
  /// re-translated (one ToLocal for the bound dimension, one per
  /// pair-dependent check). The child must be an absolute master: a miss
  /// is a rollback of that pair, never a NULL row, so no slave bookkeeping
  /// applies.
  struct PreparedChildEnum {
    int child = -1;
    /// No pair can match: an ancestor-bound side or check is NULL,
    /// unmappable, or empty — PrepareBoundChecks would return -1 (or
    /// resolve() kImpossible) for every pair, and the child being an
    /// absolute master, every pair rolls back.
    bool impossible = false;
    int bsrc = 2;  ///< Bound-dim source: 0 = pair.row, 1 = pair.col, 2 fixed.
    Dim bound_dim = Dim::kRow;
    DomainKind bound_kind = DomainKind::kSubject;
    uint32_t bound_local = 0;  ///< When bsrc == 2.
    Dim free_dim = Dim::kCol;
    uint32_t free_size = 0;
    const Bitvector* sm = nullptr;
    /// Verified-master bits for the grandchild fusion: every check below
    /// plus the mask's unit contributors (applied to every emitted pair).
    uint64_t verified = 0;
    int nchecks = 0;
    std::array<BoundCheck, kMaxBoundChecks> bcs;
    /// Per-check refresh info: src 0/1 re-resolves bound from the pair
    /// (bcs[i].bound/.row rewritten), src 2 is final.
    struct Src {
      int src = 2;
      DomainKind other_kind = DomainKind::kSubject;
      Dim vdim = Dim::kRow;
    };
    std::array<Src, kMaxBoundChecks> srcs;
  };

  /// Builds the per-block template for `child` seen from a parent block
  /// binding `parent_rv`/`parent_cv`. Returns false when the child's shape
  /// is not the one-free-dimension absolute-master case (caller falls back
  /// to per-pair RecurseOn).
  bool PrepareChildEnum(int child, int parent_rv, int parent_cv,
                        PreparedChildEnum* out);

  const Gosn& gosn_;
  GlobalIds ids_;
  const Dictionary& dict_;
  std::vector<TpState>* tps_;
  std::vector<int> stps_;
  Options options_;

  /// Sorted flat variable table; VarIndex is a binary search over it (a
  /// variable's index IS its position — no separate map).
  std::vector<std::string> var_names_;
  // Per-TP: variable column of the row/col dimension (-1 if unit).
  std::vector<int> row_var_of_tp_;
  std::vector<int> col_var_of_tp_;

  std::vector<std::vector<Entry>> vmap_;  // per var column
  std::vector<std::vector<MasterConstraint>> masters_of_var_;  // per var
  std::vector<bool> visited_;
  std::vector<TransposeCache> transpose_cache_;  // per TP

  /// Per-recursion-depth block buffers, reused across calls (cleared, never
  /// shrunk) — the block path allocates nothing in steady state. Depth
  /// indexes them, so nested descents never clobber an outer block.
  std::vector<std::vector<BindingPair>> pair_blocks_;

  /// Slave-expansion memo (block mode, DESIGN.md §8). Key: the FirstEntry
  /// values (kFreeBinding when unbound) of the TP's influencer variables —
  /// its own row/col vars plus the other-dimension vars of every absolute
  /// master constraining them; those values fully determine the TP's
  /// expansion within one Run (BitMats never mutate mid-Run). A master's
  /// other-var is consulted only while the var it constrains is free
  /// (bound dimensions are looked up, not filtered), so guarded entries
  /// collapse to a placeholder once their guard is bound — without this
  /// the key would split on bindings that cannot change the expansion.
  /// Cleared at every Run start, so no version stamps are needed.
  static constexpr uint64_t kFreeBinding = ~uint64_t{0} - 1;
  static constexpr size_t kSlaveMemoMaxKeys = size_t{1} << 16;
  static constexpr size_t kSlaveMemoMaxPairs = size_t{1} << 15;
  struct MemoKeyHash {
    size_t operator()(const std::vector<uint64_t>& key) const {
      uint64_t h = 0x9e3779b97f4a7c15ull;
      for (uint64_t v : key) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      }
      return static_cast<size_t>(h);
    }
  };
  using SlaveMemo = std::unordered_map<std::vector<uint64_t>,
                                       std::vector<BindingPair>, MemoKeyHash>;
  struct MemoVar {
    int var;    ///< variable whose binding feeds the slave-memo key
    int guard;  ///< include the value only while this var is free (-1: always)
  };
  /// Memoization only pays when binding signatures recur; a slave whose
  /// keys are all distinct pays key-build + hash + expansion copy per miss
  /// for nothing. Each TP gets a probation window: once it has accumulated
  /// kSlaveMemoProbationMisses misses with fewer than misses/8 hits, its
  /// memo is dropped for the rest of the Run and the TP streams per-pair.
  static constexpr uint32_t kSlaveMemoProbationMisses = 64;
  struct SlaveMemoState {
    SlaveMemo map;
    uint32_t hits = 0;
    uint32_t misses = 0;
    bool disabled = false;
  };
  std::vector<std::vector<MemoVar>> memo_vars_;  // per TP: influencer vars
  std::vector<SlaveMemoState> slave_memo_;       // per TP
  // Key scratch is a plain member: the key is consumed (find / moved into
  // the map) before any recursion happens, so nesting cannot clobber it.
  std::vector<uint64_t> memo_key_scratch_;
  // Per TP: the static fold masks of its row (index 0) and column (1)
  // dimensions, built lazily and version-stamped against their
  // contributors (the join never mutates BitMats mid-Run).
  std::vector<std::array<StaticMask, 2>> static_masks_;
  uint64_t transpose_cols_built_ = 0;
  uint64_t transpose_full_builds_ = 0;
  uint64_t enum_candidates_ = 0;
  uint64_t enum_pruned_static_ = 0;
  uint64_t enum_pruned_bound_ = 0;
  uint64_t enum_blocks_ = 0;
  uint64_t slave_memo_hits_ = 0;
  uint64_t slave_memo_misses_ = 0;
  uint64_t probe_elisions_ = 0;
  /// Monotonic Run() counter feeding StaticMask::validated_run.
  uint64_t run_seq_ = 0;
  /// Set by EnumerateMatches: bit per master TP (tp_id < 64) whose bound
  /// check was applied to every emitted pair of that enumeration. Scratch —
  /// callers snapshot it before recursing (deeper enumerations overwrite).
  uint64_t enum_verified_masters_ = 0;

  Sink sink_;
  ExecContext* ctx_ = nullptr;  // valid during Run
  uint64_t emitted_ = 0;
  bool nulling_applied_ = false;

  // Per-emit scratch, reused across the whole enumeration (Emit runs once
  // per result row; allocating these there put malloc on the innermost
  // loop of Alg 5.4).
  std::vector<char> sn_nulled_scratch_;
  std::vector<int> null_seeds_scratch_;
  RawRow emit_row_scratch_;
};

}  // namespace lbr

#endif  // LBR_CORE_MULTIWAY_JOIN_H_
