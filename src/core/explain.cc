#include "core/explain.h"

#include <set>
#include <sstream>

#include "core/engine.h"
#include "core/goj.h"
#include "core/gosn.h"
#include "core/jvar_order.h"
#include "core/selectivity.h"
#include "sparql/parser.h"
#include "sparql/rewrite.h"
#include "sparql/well_designed.h"

namespace lbr {

namespace {

void ExplainBranch(const TripleIndex& index, const Dictionary& dict,
                   const Algebra& branch, int branch_no, std::ostream* os) {
  *os << "branch " << branch_no << ": " << branch.ToString() << "\n";

  Gosn gosn = Gosn::Build(branch);
  const auto& tps = gosn.tps();

  // Well-designedness and the Appendix B conversion.
  auto violations = gosn.ComputeWdViolationPairs();
  if (violations.empty()) {
    *os << "  well-designed: yes\n";
  } else {
    *os << "  well-designed: NO — converting " << violations.size()
        << " violation pair(s) to inner joins (Appendix B)\n";
    gosn.ConvertViolationPairs(violations);
  }

  // Supernodes and edges.
  *os << "  supernodes (" << gosn.num_supernodes() << "):\n";
  for (const SuperNode& sn : gosn.supernodes()) {
    *os << "    SN" << sn.id
        << (gosn.IsAbsoluteMaster(sn.id) ? " [absolute master]" : "")
        << " depth=" << gosn.MasterDepth(sn.id) << ":\n";
    for (int tp_id : sn.tp_ids) {
      uint64_t card = EstimateTpCardinality(index, dict, tps[tp_id]);
      *os << "      tp" << tp_id << "  " << tps[tp_id].ToString() << "  (~"
          << card << " triples)\n";
    }
  }
  for (const auto& [a, b] : gosn.uni_edges()) {
    *os << "    edge SN" << a << " -> SN" << b << "  (OPTIONAL)\n";
  }
  for (const auto& [a, b] : gosn.bidi_edges()) {
    *os << "    edge SN" << a << " <-> SN" << b << "  (join)\n";
  }
  for (const ScopedFilter& f : gosn.filters()) {
    *os << "    filter [" << f.expr.ToString() << "] scope {";
    for (size_t i = 0; i < f.scope_supernodes.size(); ++i) {
      *os << (i ? "," : "") << "SN" << f.scope_supernodes[i];
    }
    *os << "}\n";
  }

  // GoJ and orders.
  Goj goj = Goj::Build(tps);
  std::vector<uint64_t> cards;
  cards.reserve(tps.size());
  for (const TriplePattern& tp : tps) {
    cards.push_back(EstimateTpCardinality(index, dict, tp));
  }
  *os << "  GoJ: " << goj.num_jvars() << " jvar(s)"
      << (goj.IsCyclic() ? ", CYCLIC" : ", acyclic") << " {";
  for (int j = 0; j < goj.num_jvars(); ++j) {
    *os << (j ? " " : "") << "?" << goj.jvars()[j];
  }
  *os << "}\n";

  JvarOrder order = GetJvarOrder(gosn, goj, cards);
  auto print_order = [&](const char* label, const std::vector<int>& ord) {
    *os << "  " << label << ":";
    for (int j : ord) *os << " ?" << goj.jvars()[j];
    *os << "\n";
  };
  print_order(order.greedy ? "order (greedy)" : "order_bu", order.order_bu);
  if (!order.greedy) print_order("order_td", order.order_td);

  // Lemma 3.4 decision.
  bool nb = false;
  if (goj.IsCyclic()) {
    for (int sn : gosn.SlaveSupernodes()) {
      std::set<int> jvars_in_sn;
      for (int tp_id : gosn.supernode(sn).tp_ids) {
        for (const std::string& v : tps[tp_id].Vars()) {
          if (goj.IsJvar(v)) jvars_in_sn.insert(goj.JvarIndex(v));
        }
      }
      if (jvars_in_sn.size() > 1) nb = true;
    }
  }
  *os << "  nullification/best-match: "
      << (nb ? "REQUIRED (cyclic GoJ with a multi-jvar slave)"
             : "not required (Lemmas 3.3/3.4)")
      << "\n";
}

}  // namespace

std::string ExplainQuery(const TripleIndex& index, const Dictionary& dict,
                         const ParsedQuery& query) {
  std::ostringstream os;
  std::unique_ptr<Algebra> body = EliminateVarEqualities(*query.body);
  os << "query: " << body->ToString() << "\n";
  os << "projection:";
  for (const std::string& v : query.EffectiveProjection()) os << " ?" << v;
  os << "\n";

  UnfResult unf = ToUnionNormalForm(*body);
  os << "UNF branches: " << unf.branches.size()
     << (unf.may_have_spurious
             ? " (rule-3 used: cross-branch best-match will run)"
             : "")
     << "\n";
  int n = 0;
  for (const auto& branch : unf.branches) {
    ExplainBranch(index, dict, *branch, n++, &os);
  }
  return os.str();
}

std::string ExplainQuery(const TripleIndex& index, const Dictionary& dict,
                         const std::string& sparql) {
  return ExplainQuery(index, dict, Parser::Parse(sparql));
}

std::string ExplainCacheStats(const QueryStats& stats) {
  std::ostringstream os;
  // The structured termination reason (DESIGN.md §9): a kOk run may still
  // have fired the empty-absolute-master shortcut — that is a complete
  // empty answer, reported separately so it is never mistaken for an abort.
  os << "termination: " << QueryTerminationName(stats.termination);
  if (stats.empty_result_shortcut) os << " (empty-master shortcut)";
  os << "\n";
  os << "cache stats:\n";
  os << "  tp cache: " << stats.tp_cache_hits << " hit(s), "
     << stats.tp_cache_misses << " miss(es), " << stats.tp_cache_held_triples
     << " triple(s) held\n";
  os << "  fold cache: " << stats.fold_cache_hits << " hit(s), "
     << stats.fold_cache_misses << " miss(es)\n";
  if (stats.tp_cache_contention > 0 || stats.tp_cache_flight_waits > 0) {
    os << "  tp cache contention: " << stats.tp_cache_contention
       << " contended lock(s), " << stats.tp_cache_flight_waits
       << " single-flight wait(s)\n";
  }
  if (stats.snapshot_materializations > 0 || stats.snapshot_spills > 0 ||
      stats.snapshot_resident_bytes > 0) {
    os << "  snapshot: " << stats.snapshot_materializations
       << " materialization(s), " << stats.snapshot_spills << " spill(s), "
       << stats.snapshot_prefetches << " prefetch(es), "
       << stats.snapshot_resident_bytes << " resident byte(s)";
    if (stats.snapshot_budget_bytes > 0) {
      os << " / " << stats.snapshot_budget_bytes << " budget";
    }
    os << "\n";
  }
  if (stats.faults_injected > 0 || stats.fault_retries > 0 ||
      stats.quarantined_slices > 0) {
    os << "  faults: " << stats.faults_injected << " injected, "
       << stats.fault_retries << " retried, " << stats.quarantined_slices
       << " quarantined slice(s)\n";
  }
  if (stats.plan_cache_hits > 0 || stats.plan_cache_misses > 0) {
    os << "  plan cache: " << stats.plan_cache_hits << " hit(s), "
       << stats.plan_cache_misses << " miss(es)\n";
    os << "  planning: " << stats.t_plan_sec * 1e3 << " ms ("
       << stats.planning_parses << " parse(s), " << stats.planning_rewrites
       << " rewrite(s), " << stats.planning_gosn_builds << " GoSN build(s), "
       << stats.planning_jvar_orders << " jvar order(s))\n";
  }
  return os.str();
}

}  // namespace lbr
