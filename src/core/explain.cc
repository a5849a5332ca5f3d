#include "core/explain.h"

#include <sstream>

#include "core/engine.h"
#include "sparql/parser.h"

namespace lbr {

namespace {

// `pruned`: whether the explaining engine prunes; one that does not runs
// best-match on every branch.
void ExplainBranch(const BranchPlan& plan, bool pruned, int branch_no,
                   std::ostream* os) {
  const Gosn& gosn = plan.gosn;
  const Goj& goj = plan.goj;
  const auto& tps = gosn.tps();
  *os << "branch " << branch_no << ":\n";

  // Well-designedness and the Appendix B conversion.
  if (plan.well_designed) {
    *os << "  well-designed: yes\n";
  } else {
    *os << "  well-designed: NO — violating OPTIONAL edges converted to "
           "inner joins (Appendix B)\n";
  }

  // Supernodes and edges.
  *os << "  supernodes (" << gosn.num_supernodes() << "):\n";
  for (const SuperNode& sn : gosn.supernodes()) {
    *os << "    SN" << sn.id
        << (gosn.IsAbsoluteMaster(sn.id) ? " [absolute master]" : "")
        << " depth=" << gosn.MasterDepth(sn.id) << ":\n";
    for (int tp_id : sn.tp_ids) {
      *os << "      tp" << tp_id << "  " << tps[tp_id].ToString() << "  (~"
          << plan.estimated_cards[tp_id] << " triples)\n";
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

  // GoJ, orders and the init load order.
  *os << "  GoJ: " << goj.num_jvars() << " jvar(s)"
      << (goj.IsCyclic() ? ", CYCLIC" : ", acyclic") << " {";
  for (int j = 0; j < goj.num_jvars(); ++j) {
    *os << (j ? " " : "") << "?" << goj.jvars()[j];
  }
  *os << "}\n";

  auto print_order = [&](const char* label, const std::vector<int>& ord) {
    *os << "  " << label << ":";
    for (int j : ord) *os << " ?" << goj.jvars()[j];
    *os << "\n";
  };
  const JvarOrder& order = plan.order;
  print_order(order.greedy ? "order (greedy)" : "order_bu", order.order_bu);
  if (!order.greedy) print_order("order_td", order.order_td);
  *os << "  load order:";
  for (int tp_id : plan.load_order) *os << " tp" << tp_id;
  *os << "\n";

  // Lemma 3.4 decision.
  *os << "  nullification/best-match: "
      << (plan.nb_reqd || !pruned ? "REQUIRED (minimality not guaranteed)"
                       : "not required (Lemmas 3.3/3.4)")
      << "\n";
}

}  // namespace

std::string ExplainQuery(const Engine& engine, const ParsedQuery& query) {
  const CompiledPlan plan = engine.CompilePlan(query);
  std::ostringstream os;
  os << "query: " << query.body->ToString() << "\n";
  os << "projection:";
  for (const std::string& v : plan.projection) os << " ?" << v;
  os << "\n";
  os << "UNF branches: " << plan.branches.size()
     << (plan.may_have_spurious
             ? " (rule-3 used: cross-branch best-match will run)"
             : "")
     << "\n";
  int n = 0;
  for (const BranchPlan& branch : plan.branches) {
    ExplainBranch(branch, engine.options().enable_prune, n++, &os);
  }
  return os.str();
}

std::string ExplainQuery(const Engine& engine, const std::string& sparql) {
  return ExplainQuery(engine, Parser::Parse(sparql));
}

std::string ExplainCacheStats(const QueryStats& stats) {
  std::ostringstream os;
  // The structured termination reason (DESIGN.md §9): a kOk run may still
  // have fired the empty-absolute-master shortcut — that is a complete
  // empty answer, reported separately so it is never mistaken for an abort.
  os << "termination: " << QueryTerminationName(stats.termination);
  if (stats.empty_result_shortcut) os << " (empty-master shortcut)";
  os << "\n";
  os << "phases: plan " << stats.t_plan_sec * 1e3 << " ms, init "
     << stats.t_init_sec * 1e3 << " ms, prune " << stats.t_prune_sec * 1e3
     << " ms, join " << stats.t_join_sec * 1e3 << " ms, best-match "
     << stats.t_best_match_sec * 1e3 << " ms, project "
     << stats.t_project_sec * 1e3 << " ms of " << stats.t_total_sec * 1e3
     << " ms\n";
  os << "join: " << stats.join_columns_extracted
     << " column(s) extracted, " << stats.join_rows_scanned
     << " row(s) scanned, " << stats.join_transposes << " transpose(s)\n";
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
  os << "  snapshot: " << stats.snapshot_materializations
     << " materialization(s), " << stats.snapshot_spills << " spill(s), "
     << stats.snapshot_prefetches << " prefetch(es), "
     << stats.snapshot_resident_bytes << " resident byte(s)";
  if (stats.snapshot_budget_bytes > 0) {
    os << " / " << stats.snapshot_budget_bytes << " budget";
  }
  os << "\n";
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
