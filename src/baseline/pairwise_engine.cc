#include "baseline/pairwise_engine.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "core/global_ids.h"
#include "core/selectivity.h"
#include "sparql/filter_eval.h"
#include "sparql/parser.h"
#include "util/stopwatch.h"

namespace lbr {

namespace {

// Hash of the values at `cols` of a row.
uint64_t KeyHash(const RawRow& row, const std::vector<int>& cols) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int c : cols) {
    h ^= row[c];
    h *= 0x100000001b3ull;
  }
  return h;
}

bool KeyEquals(const RawRow& a, const std::vector<int>& ca, const RawRow& b,
               const std::vector<int>& cb) {
  for (size_t i = 0; i < ca.size(); ++i) {
    if (a[ca[i]] != b[cb[i]]) return false;
  }
  return true;
}

// Null-intolerant: a key containing NULL matches nothing.
bool KeyHasNull(const RawRow& row, const std::vector<int>& cols) {
  for (int c : cols) {
    if (row[c] == kNullBinding) return true;
  }
  return false;
}

}  // namespace

int PairwiseEngine::Relation::ColumnOf(const std::string& var) const {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == var) return static_cast<int>(i);
  }
  return -1;
}

PairwiseEngine::Relation PairwiseEngine::ScanTp(const TriplePattern& tp) {
  Relation rel;
  GlobalIds ids = GlobalIds::FromDictionary(*dict_);

  // Column layout: distinct variables in S, P, O order.
  std::vector<std::pair<char, std::string>> var_positions;
  if (tp.s.is_var) var_positions.emplace_back('s', tp.s.var);
  if (tp.p.is_var) var_positions.emplace_back('p', tp.p.var);
  if (tp.o.is_var) var_positions.emplace_back('o', tp.o.var);
  for (const auto& [pos, var] : var_positions) {
    (void)pos;
    if (rel.ColumnOf(var) < 0) rel.vars.push_back(var);
  }

  auto emit = [&](uint32_t s, uint32_t p, uint32_t o) {
    RawRow row(rel.vars.size(), kNullBinding);
    bool ok = true;
    auto put = [&](const PatternTerm& pt, DomainKind kind, uint32_t local) {
      if (!pt.is_var || !ok) return;
      uint64_t g = ids.ToGlobal(kind, local);
      int col = rel.ColumnOf(pt.var);
      if (row[col] != kNullBinding && row[col] != g) {
        ok = false;  // same variable twice with different values
        return;
      }
      row[col] = g;
    };
    put(tp.s, DomainKind::kSubject, s);
    put(tp.p, DomainKind::kPredicate, p);
    put(tp.o, DomainKind::kObject, o);
    if (ok) rel.rows.push_back(std::move(row));
  };

  // Each scan pins the one slice it reads, so a budgeted snapshot cannot
  // spill the rows out from under it.
  auto scan_predicate = [&](uint32_t p) {
    using Side = TripleIndex::Side;
    if (!tp.s.is_var) {
      auto s = dict_->SubjectId(tp.s.term);
      if (!s) return;
      TripleIndex::SlicePin so = index_->Slice(p, Side::kSO);
      if (so == nullptr) return;
      const CompressedRow& row = TripleIndex::FindRowIn(so->rows, *s);
      if (!tp.o.is_var) {
        auto o = dict_->ObjectId(tp.o.term);
        if (o && row.Test(*o)) emit(*s, p, *o);
        return;
      }
      row.ForEachSetBit([&](uint32_t o) { emit(*s, p, o); });
      return;
    }
    if (!tp.o.is_var) {
      auto o = dict_->ObjectId(tp.o.term);
      if (!o) return;
      TripleIndex::SlicePin os = index_->Slice(p, Side::kOS);
      if (os == nullptr) return;
      TripleIndex::FindRowIn(os->rows, *o).ForEachSetBit(
          [&](uint32_t s) { emit(s, p, *o); });
      return;
    }
    TripleIndex::SlicePin so = index_->Slice(p, Side::kSO);
    if (so == nullptr) return;
    for (const auto& [s, row] : so->rows) {
      uint32_t subj = s;
      row.ForEachSetBit([&](uint32_t o) { emit(subj, p, o); });
    }
  };

  if (!tp.p.is_var) {
    auto p = dict_->PredicateId(tp.p.term);
    if (p) scan_predicate(*p);
  } else {
    for (uint32_t p = 0; p < index_->num_predicates(); ++p) scan_predicate(p);
  }
  return rel;
}

PairwiseEngine::Relation PairwiseEngine::HashJoin(const Relation& left,
                                                  const Relation& right) {
  Relation out;
  out.vars = left.vars;
  std::vector<int> lcols, rcols, rextra;
  for (size_t i = 0; i < right.vars.size(); ++i) {
    int lc = left.ColumnOf(right.vars[i]);
    if (lc >= 0) {
      lcols.push_back(lc);
      rcols.push_back(static_cast<int>(i));
    } else {
      rextra.push_back(static_cast<int>(i));
      out.vars.push_back(right.vars[i]);
    }
  }

  // Build on the smaller side conceptually; for clarity build on right.
  std::unordered_map<uint64_t, std::vector<size_t>> table;
  table.reserve(right.rows.size());
  for (size_t i = 0; i < right.rows.size(); ++i) {
    if (KeyHasNull(right.rows[i], rcols)) continue;
    table[KeyHash(right.rows[i], rcols)].push_back(i);
  }
  for (const RawRow& lrow : left.rows) {
    if (KeyHasNull(lrow, lcols)) continue;
    auto it = table.find(KeyHash(lrow, lcols));
    if (it == table.end()) continue;
    for (size_t ri : it->second) {
      const RawRow& rrow = right.rows[ri];
      if (!KeyEquals(lrow, lcols, rrow, rcols)) continue;
      RawRow merged = lrow;
      for (int re : rextra) merged.push_back(rrow[re]);
      out.rows.push_back(std::move(merged));
    }
  }
  return out;
}

PairwiseEngine::Relation PairwiseEngine::LeftOuterHashJoin(
    const Relation& left, const Relation& right) {
  Relation out;
  out.vars = left.vars;
  std::vector<int> lcols, rcols, rextra;
  for (size_t i = 0; i < right.vars.size(); ++i) {
    int lc = left.ColumnOf(right.vars[i]);
    if (lc >= 0) {
      lcols.push_back(lc);
      rcols.push_back(static_cast<int>(i));
    } else {
      rextra.push_back(static_cast<int>(i));
      out.vars.push_back(right.vars[i]);
    }
  }

  std::unordered_map<uint64_t, std::vector<size_t>> table;
  table.reserve(right.rows.size());
  for (size_t i = 0; i < right.rows.size(); ++i) {
    if (KeyHasNull(right.rows[i], rcols)) continue;
    table[KeyHash(right.rows[i], rcols)].push_back(i);
  }
  for (const RawRow& lrow : left.rows) {
    bool matched = false;
    if (!KeyHasNull(lrow, lcols)) {
      auto it = table.find(KeyHash(lrow, lcols));
      if (it != table.end()) {
        for (size_t ri : it->second) {
          const RawRow& rrow = right.rows[ri];
          if (!KeyEquals(lrow, lcols, rrow, rcols)) continue;
          RawRow merged = lrow;
          for (int re : rextra) merged.push_back(rrow[re]);
          out.rows.push_back(std::move(merged));
          matched = true;
        }
      }
    }
    if (!matched) {
      RawRow padded = lrow;
      padded.resize(out.vars.size(), kNullBinding);
      out.rows.push_back(std::move(padded));
    }
  }
  return out;
}

PairwiseEngine::Relation PairwiseEngine::EvalBgp(
    const std::vector<TriplePattern>& tps) {
  if (tps.empty()) {
    Relation unit;
    unit.rows.emplace_back();  // one empty row: the unit relation
    return unit;
  }
  // Selectivity-ordered greedy pairwise joins: start from the most
  // selective TP, repeatedly join the most selective TP that shares a
  // variable with the result so far.
  std::vector<std::pair<uint64_t, size_t>> order;
  for (size_t i = 0; i < tps.size(); ++i) {
    order.emplace_back(EstimateTpCardinality(*index_, *dict_, tps[i]), i);
  }
  std::sort(order.begin(), order.end());

  std::vector<bool> used(tps.size(), false);
  Relation acc = ScanTp(tps[order[0].second]);
  used[order[0].second] = true;
  for (size_t joined = 1; joined < tps.size(); ++joined) {
    // Next: cheapest unused TP sharing a variable; else cheapest unused.
    size_t pick = SIZE_MAX;
    for (const auto& [card, idx] : order) {
      (void)card;
      if (used[idx]) continue;
      bool shares = false;
      for (const std::string& v : tps[idx].Vars()) {
        if (acc.ColumnOf(v) >= 0) {
          shares = true;
          break;
        }
      }
      if (shares) {
        pick = idx;
        break;
      }
      if (pick == SIZE_MAX) pick = idx;  // fallback: Cartesian join
    }
    used[pick] = true;
    acc = HashJoin(acc, ScanTp(tps[pick]));
  }
  return acc;
}

PairwiseEngine::Relation PairwiseEngine::ApplyFilter(const FilterExpr& expr,
                                                     Relation input) {
  Relation out;
  out.vars = input.vars;
  for (RawRow& row : input.rows) {
    VarLookup lookup = [&](const std::string& var) -> std::optional<Term> {
      int c = out.ColumnOf(var);
      if (c < 0 || row[c] == kNullBinding) return std::nullopt;
      return dict_->TermAt(row[c]);
    };
    if (FilterPasses(expr, lookup)) out.rows.push_back(std::move(row));
  }
  return out;
}

PairwiseEngine::Relation PairwiseEngine::Evaluate(const Algebra& node) {
  switch (node.op) {
    case Algebra::Op::kBgp:
      return EvalBgp(node.bgp);
    case Algebra::Op::kJoin:
      return HashJoin(Evaluate(*node.left), Evaluate(*node.right));
    case Algebra::Op::kLeftJoin:
      return LeftOuterHashJoin(Evaluate(*node.left), Evaluate(*node.right));
    case Algebra::Op::kUnion: {
      Relation l = Evaluate(*node.left);
      Relation r = Evaluate(*node.right);
      // Align columns: union keeps the full variable set (SQL-style arity).
      Relation out;
      out.vars = l.vars;
      for (const std::string& v : r.vars) {
        if (out.ColumnOf(v) < 0) out.vars.push_back(v);
      }
      auto align = [&out](const Relation& in) {
        std::vector<int> map(out.vars.size(), -1);
        for (size_t i = 0; i < out.vars.size(); ++i) {
          map[i] = in.ColumnOf(out.vars[i]);
        }
        std::vector<RawRow> rows;
        rows.reserve(in.rows.size());
        for (const RawRow& row : in.rows) {
          RawRow aligned(out.vars.size(), kNullBinding);
          for (size_t i = 0; i < out.vars.size(); ++i) {
            if (map[i] >= 0) aligned[i] = row[map[i]];
          }
          rows.push_back(std::move(aligned));
        }
        return rows;
      };
      out.rows = align(l);
      std::vector<RawRow> rrows = align(r);
      out.rows.insert(out.rows.end(), rrows.begin(), rrows.end());
      return out;
    }
    case Algebra::Op::kFilter:
      return ApplyFilter(node.filter, Evaluate(*node.left));
  }
  return Relation{};
}

ResultTable PairwiseEngine::ExecuteToTable(const ParsedQuery& query,
                                           QueryStats* stats) {
  Stopwatch watch;
  Relation rel = Evaluate(*query.body);

  ResultTable table;
  table.var_names = query.EffectiveProjection();
  std::vector<int> cols(table.var_names.size(), -1);
  for (size_t i = 0; i < table.var_names.size(); ++i) {
    cols[i] = rel.ColumnOf(table.var_names[i]);
  }
  uint64_t with_nulls = 0;
  for (const RawRow& row : rel.rows) {
    std::vector<std::optional<Term>> decoded(table.var_names.size());
    bool has_null = false;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] >= 0 && row[cols[i]] != kNullBinding) {
        decoded[i] = dict_->TermAt(row[cols[i]]);
      } else {
        has_null = true;
      }
    }
    if (has_null) ++with_nulls;
    table.rows.push_back(std::move(decoded));
  }
  if (stats != nullptr) {
    stats->t_total_sec = watch.Seconds();
    stats->num_results = table.rows.size();
    stats->num_results_with_nulls = with_nulls;
  }
  return table;
}

}  // namespace lbr
