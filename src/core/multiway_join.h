#ifndef LBR_CORE_MULTIWAY_JOIN_H_
#define LBR_CORE_MULTIWAY_JOIN_H_

#include <array>
#include <functional>
#include <string>
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
/// then the master-slave hierarchy); no intermediate tables or hash joins
/// are built. Unmatched slave TPs produce NULL bindings; unmatched
/// absolute-master TPs roll the branch back.
///
/// The visit order is compiled once at the top of every Run (DESIGN.md
/// §6): Alg 5.4's choice — the first unvisited TP in stps order with a
/// bound variable — depends only on which TPs are visited, since a NULL
/// visit binds its variables too, so depth d always visits the same TP.
/// Bindings therefore live in one depth-indexed frame (a row and a column
/// slot per depth), and a variable's binding is the fixed slot of the
/// first depth whose TP binds it. A slave TP whose BitMat is empty when the
/// Run starts can never match: its depth is bound NULL for the whole Run
/// and never enumerated.
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
  /// Called with the slab index of each row nullification/FaN nulled part
  /// of, right after the row is written. Nulled rows are phantoms of
  /// reordered enumeration: the engine deduplicates them (at full-row
  /// granularity, popping the row from the slab) and runs best-match.
  using NulledRowHook = std::function<void(size_t row)>;

  struct Options {
    /// Run the nullification repair at emit time.
    bool nullification = false;
    /// Scoped filters to apply FaN-style (innermost first).
    std::vector<ScopedFilter> filters;
  };

  /// The join keeps its own per-emit scratch buffers (below), so
  /// steady-state emission does not touch the heap.
  ///
  /// Precondition: the TPs' BitMats are frozen — nothing changes them from
  /// construction until the last Run. The join memoizes what it derives
  /// from them (static fold masks, transposes) for its whole lifetime; the
  /// engine builds one join per branch after prune and runs it once.
  MultiwayJoin(const Gosn& gosn, const GlobalIds& ids, const Dictionary& dict,
               std::vector<TpState>* tps, std::vector<int> stps_order,
               Options options);

  /// Variable table: dense column indexes for every query variable, in a
  /// deterministic (sorted) order.
  const std::vector<std::string>& var_names() const { return var_names_; }
  int VarIndex(const std::string& name) const;

  /// Runs the join, appending each final row to `rows` (whose width is
  /// var_names().size()) and telling `on_nulled`, when given, about every
  /// nulled one. Returns the number of rows emitted. `ctx` (optional)
  /// supplies pooled scratch for the candidate-intersection masks and
  /// position buffers, and is charged for the appended rows; without it
  /// every Recurse level falls back to function-local buffers.
  uint64_t Run(RowSlab* rows, ExecContext* ctx = nullptr,
               const NulledRowHook& on_nulled = nullptr);

  /// The visit order the last Run compiled: the TP visited at each depth.
  const std::vector<int>& visit_order() const { return order_; }

  /// True if any row needed nullification repair or FaN nulling — the
  /// engine must then run best-match over the emitted rows.
  bool nulling_applied() const { return nulling_applied_; }

  /// Column indexes of variables bound by absolute-master TPs (never NULL);
  /// used as the best-match grouping key.
  const std::vector<int>& MasterColumns() const { return master_columns_; }

  /// Transpose-cache telemetry (cumulative over Runs): columns extracted
  /// lazily, the populated rows those extractions scanned, and full
  /// transposes built.
  uint64_t columns_extracted() const { return columns_extracted_; }
  uint64_t rows_scanned() const { return rows_scanned_; }
  uint64_t transposes() const { return transposes_; }

  /// Enumeration telemetry (cumulative over Runs): candidates entering
  /// the constrained enumerations, and how many the static fold masks /
  /// bound-master rows eliminated before recursion.
  uint64_t enum_candidates() const { return enum_candidates_; }
  uint64_t enum_pruned_static() const { return enum_pruned_static_; }
  uint64_t enum_pruned_bound() const { return enum_pruned_bound_; }

 private:
  /// The fold part of a dimension's candidate constraint: the intersection
  /// of the (aligned) folds of every absolute-master TP sharing the
  /// dimension's variable. A variable is only ever enumerated freely while
  /// every master sharing it is unvisited (a visited TP binds its
  /// variables), so the contributing set never depends on the recursion
  /// state — one mask per (TP, dim) serves every Recurse node, and since
  /// the inputs are frozen, for the join's lifetime.
  struct StaticMask {
    bool built = false;
    bool restricted = false;  ///< At least one master constrains the var.
    /// Mask too dense to pay for itself: most of the domain survives, so
    /// the per-node AND would filter next to nothing — skip it (bound-row
    /// filtering still applies). Decided once per build from Count().
    bool inert = false;
    Bitvector mask;
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
  /// actually visits are extracted (as shared row handles), each by a scan
  /// of the populated rows, while the rows scanned stay within the cost of
  /// one full Transposed() (Count() + num_cols()/64); the miss that would
  /// exceed it transposes instead. Valid for the join's lifetime (frozen
  /// inputs).
  struct TransposeCache {
    bool full = false;
    BitMat full_mat;  // when `full`
    /// Populated rows the lazy extractions of this entry have scanned.
    uint64_t rows_scanned = 0;
    /// Extracted columns, sorted by column index. Each costs a scan of at
    /// least one row, so the cost rule caps them at the transpose cost:
    /// O(visited columns), never O(num_cols). A present entry with a null
    /// handle is an extracted empty column.
    std::vector<std::pair<uint32_t, BitMat::RowHandle>> cols;
  };

  /// Compiles the Run's visit order (Alg 5.4 lines 6-11, evaluated once
  /// per depth) and everything that follows from it: each variable's
  /// binding slots, the slave supernodes' probe slots, the depths bound
  /// NULL up front, and a fresh frame.
  void CompileOrder();

  /// Descends to `depth`, skipping the depths bound NULL up front; past the
  /// last depth, emits the row.
  void Recurse(size_t depth);
  void Emit();

  /// One recursion node: enumerates the matches of the TP at `depth` under
  /// the current bindings, binds each into the frame and descends; with no
  /// match, an absolute master rolls the branch back and a slave binds
  /// NULL (Alg 5.4 lines 27-28).
  void RecurseOn(size_t depth);

  /// Enumerates every (row_value, col_value) match of the TP at `depth`
  /// under the current bindings — the case chain of Alg 5.4 with the
  /// DESIGN.md §6 candidate intersection — calling `emit` for each in
  /// enumeration order. Returns false when nothing matched.
  template <typename EmitPair>
  bool EnumerateMatches(size_t depth, EmitPair&& emit);

  /// The binding of `var` seen at `depth`: its first binding slot once a
  /// shallower depth filled it, nullptr while `var` is still free.
  const uint64_t* BindingAt(int var, size_t depth) const {
    const int slot = first_slot_[var];
    return slot >= 0 && static_cast<size_t>(slot) < 2 * depth
               ? &frame_[slot]
               : nullptr;
  }

  /// Charges the rows appended since the last charge to the query's
  /// memory budget.
  void ChargeRows();

  /// Column `col` of TP `tp_id`'s BitMat as a compressed row over the row
  /// domain, served from the lazy transpose cache. The reference stays
  /// valid for the join's lifetime.
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

  /// Resolves the currently-applicable bound-row constraints on `var` for
  /// the TP at `depth`. Returns -1 when some master can never match under
  /// the current bindings (no candidate survives; the branch is bound to
  /// roll back), else the number of checks filled (capped at
  /// kMaxBoundChecks — a subset of constraints is still a sound filter).
  int PrepareBoundChecks(int var, size_t depth, DomainKind dst_kind,
                         std::array<BoundCheck, kMaxBoundChecks>* out);

  /// True iff candidate `p` passes every prepared check — the exact Tests
  /// the candidate's probe would pay one recursion level down.
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

  std::vector<std::vector<MasterConstraint>> masters_of_var_;  // per var
  std::vector<int> master_columns_;
  std::vector<TransposeCache> transpose_cache_;  // per TP

  // Per TP: the static fold masks of its row (index 0) and column (1)
  // dimensions, built lazily.
  std::vector<std::array<StaticMask, 2>> static_masks_;
  uint64_t columns_extracted_ = 0;
  uint64_t rows_scanned_ = 0;
  uint64_t transposes_ = 0;
  uint64_t enum_candidates_ = 0;
  uint64_t enum_pruned_static_ = 0;
  uint64_t enum_pruned_bound_ = 0;

  // The compiled visit order (per Run). A frame slot is 2 * depth for the
  // row value bound at that depth and 2 * depth + 1 for the column value.
  static constexpr size_t kNotVisited = static_cast<size_t>(-1);
  std::vector<int> order_;            // TP id per depth
  std::vector<size_t> depth_of_tp_;   // per TP; kNotVisited outside stps
  std::vector<int> first_slot_;       // per var; -1 if no TP binds it
  std::vector<size_t> live_from_;     // per depth: next one not NULL up front
  std::vector<uint64_t> frame_;       // the bindings, two slots per depth
  // Per var, every slot binding it in depth order; Emit walks them only
  // when a row has nulled supernodes.
  std::vector<std::vector<int>> var_slots_;
  // Per supernode, one slot per variable-carrying TP of a slave supernode
  // (none for absolute masters): NULL iff that TP was visited NULL.
  std::vector<std::vector<int>> probe_slots_;

  RowSlab* rows_ = nullptr;                   // valid during Run
  const NulledRowHook* on_nulled_ = nullptr;  // valid during Run
  /// Result rows per memory charge (ChargeRows).
  static constexpr size_t kRowChargeChunk = 1024;
  size_t rows_charged_ = 0;
  ExecContext* ctx_ = nullptr;  // valid during Run
  uint64_t emitted_ = 0;
  bool nulling_applied_ = false;

  // Per-emit scratch, reused across the whole enumeration (Emit runs once
  // per result row and must not allocate).
  std::vector<char> sn_nulled_scratch_;
  std::vector<int> null_seeds_scratch_;
};

}  // namespace lbr

#endif  // LBR_CORE_MULTIWAY_JOIN_H_
