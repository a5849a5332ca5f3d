// Query lifecycle control (DESIGN.md §9): deadlines, cooperative
// cancellation, memory budgets, structured termination reasons, and
// admission control in the batch driver.
//
// The deadline test self-calibrates: it grows the LUBM dataset until an
// unbounded run of a dense co-enrollment query (the default block
// enumeration, pruning off) takes long enough that a 50 ms deadline must fire mid-join, then
// asserts the bounded run terminates kDeadlineExceeded well under the
// unbounded time.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bitmat/triple_index.h"
#include "core/database.h"
#include "core/engine.h"
#include "core/explain.h"
#include "core/row.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "util/query_control.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/lubm_gen.h"

namespace lbr {
namespace {

using testing::Canonicalize;
using testing::MakeGraph;

// --- QueryControl unit behavior -----------------------------------------

TEST(QueryControlTest, StartsClean) {
  QueryControl control;
  EXPECT_FALSE(control.aborted());
  EXPECT_EQ(control.abort_code(), QueryTermination::kOk);
  EXPECT_TRUE(control.Outcome().ok());
  control.ThrowIfAborted();  // no-op
  control.PollNow();         // no deadline set: no-op
  EXPECT_FALSE(control.aborted());
}

TEST(QueryControlTest, CancelLatchesAndThrows) {
  QueryControl control;
  control.Cancel();
  EXPECT_TRUE(control.aborted());
  EXPECT_EQ(control.abort_code(), QueryTermination::kCancelled);
  control.Cancel();  // idempotent
  EXPECT_EQ(control.abort_code(), QueryTermination::kCancelled);
  try {
    control.ThrowIfAborted();
    FAIL() << "expected QueryAbortedError";
  } catch (const QueryAbortedError& e) {
    EXPECT_EQ(e.code(), QueryTermination::kCancelled);
    EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos);
  }
}

TEST(QueryControlTest, FirstAbortReasonWins) {
  QueryControl control;
  control.Cancel();
  // A later deadline breach must not overwrite the latched reason.
  control.SetDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(5));
  control.PollNow();
  EXPECT_EQ(control.abort_code(), QueryTermination::kCancelled);
}

TEST(QueryControlTest, PastDeadlineAbortsOnPoll) {
  QueryControl control;
  control.SetDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  EXPECT_FALSE(control.aborted());  // nothing polled yet
  control.PollNow();
  EXPECT_TRUE(control.aborted());
  EXPECT_EQ(control.abort_code(), QueryTermination::kDeadlineExceeded);
  EXPECT_FALSE(control.Outcome().ok());
}

TEST(QueryControlTest, MemoryChargeTracksPeakAndBreach) {
  QueryControl control;
  control.SetMemoryBudget(1000);
  control.ChargeMemory(400);
  control.ChargeMemory(300);
  EXPECT_EQ(control.memory_used(), 700u);
  control.ReleaseMemory(500);
  EXPECT_EQ(control.memory_used(), 200u);
  EXPECT_EQ(control.memory_peak(), 700u);
  EXPECT_FALSE(control.aborted());
  EXPECT_THROW(control.ChargeMemory(900), QueryAbortedError);
  EXPECT_EQ(control.abort_code(), QueryTermination::kMemoryExceeded);
}

TEST(QueryControlTest, UnlimitedBudgetNeverAborts) {
  QueryControl control;  // budget 0 = unlimited
  control.ChargeMemory(uint64_t{1} << 40);
  EXPECT_FALSE(control.aborted());
  EXPECT_EQ(control.memory_peak(), uint64_t{1} << 40);
}

TEST(QueryControlTest, TerminationNames) {
  EXPECT_STREQ(QueryTerminationName(QueryTermination::kOk), "ok");
  EXPECT_STREQ(QueryTerminationName(QueryTermination::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(QueryTerminationName(QueryTermination::kCancelled),
               "cancelled");
  EXPECT_STREQ(QueryTerminationName(QueryTermination::kMemoryExceeded),
               "memory_exceeded");
  EXPECT_STREQ(QueryTerminationName(QueryTermination::kOverloaded),
               "overloaded");
  EXPECT_STREQ(QueryTerminationName(QueryTermination::kError), "error");
}

// --- Engine integration -------------------------------------------------

constexpr char kDeptTriangle[] =
    "PREFIX ub: <http://lubm/>\n"
    "SELECT * WHERE { ?st ub:memberOf ?dept . ?prof ub:worksFor ?dept . "
    "?st ub:advisor ?prof . }";

constexpr char kSimpleQuery[] =
    "PREFIX ub: <http://lubm/>\n"
    "SELECT * WHERE { ?x ub:advisor ?y . }";

class QueryLifecycleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LubmConfig cfg;
    cfg.num_universities = 2;
    cfg.departments_per_university = 2;
    graph_ = new Graph(Graph::FromTriples(GenerateLubm(cfg)));
    index_ = new TripleIndex(TripleIndex::Build(*graph_));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete graph_;
    index_ = nullptr;
    graph_ = nullptr;
  }
  static Graph* graph_;
  static TripleIndex* index_;
};

Graph* QueryLifecycleTest::graph_ = nullptr;
TripleIndex* QueryLifecycleTest::index_ = nullptr;

TEST_F(QueryLifecycleTest, PreCancelledQueryAbortsBeforeWork) {
  Engine engine(index_, &graph_->dict());
  QueryControl control;
  control.Cancel();
  QueryStats stats;
  EXPECT_THROW(engine.ExecuteToTable(kSimpleQuery, &stats, &control),
               QueryAbortedError);
  EXPECT_EQ(stats.termination, QueryTermination::kCancelled);
  EXPECT_EQ(stats.num_results, 0u);
}

TEST_F(QueryLifecycleTest, PastDeadlineAbortsBeforeWork) {
  Engine engine(index_, &graph_->dict());
  QueryControl control;
  control.SetDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  QueryStats stats;
  try {
    engine.ExecuteToTable(kSimpleQuery, &stats, &control);
    FAIL() << "expected QueryAbortedError";
  } catch (const QueryAbortedError& e) {
    EXPECT_EQ(e.code(), QueryTermination::kDeadlineExceeded);
  }
  EXPECT_EQ(stats.termination, QueryTermination::kDeadlineExceeded);
}

TEST_F(QueryLifecycleTest, MemoryBudgetAbortsAndReportsUsage) {
  Engine engine(index_, &graph_->dict());
  QueryControl control;
  control.SetMemoryBudget(256);  // far below the first BitMat load charge
  try {
    engine.ExecuteToTable(kDeptTriangle, nullptr, &control);
    FAIL() << "expected QueryAbortedError";
  } catch (const QueryAbortedError& e) {
    EXPECT_EQ(e.code(), QueryTermination::kMemoryExceeded);
    EXPECT_NE(std::string(e.what()).find("memory"), std::string::npos);
  }
  EXPECT_GT(control.memory_peak(), 256u);
}

TEST_F(QueryLifecycleTest, EngineReusableAfterAbort) {
  Engine engine(index_, &graph_->dict());
  Engine fresh(index_, &graph_->dict());
  ResultTable expected = fresh.ExecuteToTable(kDeptTriangle);
  ASSERT_FALSE(expected.rows.empty());

  {
    QueryControl control;
    control.Cancel();
    EXPECT_THROW(engine.ExecuteToTable(kDeptTriangle, nullptr, &control),
                 QueryAbortedError);
  }
  {
    QueryControl control;
    control.SetMemoryBudget(256);
    EXPECT_THROW(engine.ExecuteToTable(kDeptTriangle, nullptr, &control),
                 QueryAbortedError);
  }
  // The aborted engine must produce exactly the clean engine's answer.
  ResultTable got = engine.ExecuteToTable(kDeptTriangle);
  EXPECT_EQ(Canonicalize(got), Canonicalize(expected));
}

TEST_F(QueryLifecycleTest, NoControlRunsUnchanged) {
  Engine engine(index_, &graph_->dict());
  QueryStats stats;
  ResultTable t = engine.ExecuteToTable(kDeptTriangle, &stats);
  EXPECT_FALSE(t.rows.empty());
  EXPECT_EQ(stats.termination, QueryTermination::kOk);
  EXPECT_FALSE(stats.empty_result_shortcut);
}

TEST_F(QueryLifecycleTest, ExplainReportsTermination) {
  Engine engine(index_, &graph_->dict());
  QueryStats stats;
  engine.ExecuteToTable(kSimpleQuery, &stats);
  std::string text = ExplainCacheStats(stats);
  EXPECT_NE(text.find("termination: ok"), std::string::npos);

  // The empty-absolute-master shortcut is a complete (empty) answer: kOk,
  // flagged separately — it must never read as an abort.
  QueryStats empty_stats;
  ResultTable t = engine.ExecuteToTable(
      "SELECT * WHERE { ?s <http://lubm/noSuchPredicate> ?o . }",
      &empty_stats);
  EXPECT_TRUE(t.rows.empty());
  EXPECT_EQ(empty_stats.termination, QueryTermination::kOk);
  EXPECT_TRUE(empty_stats.empty_result_shortcut);
  std::string empty_text = ExplainCacheStats(empty_stats);
  EXPECT_NE(empty_text.find("empty-master shortcut"), std::string::npos);
}

// The acceptance-criterion test: a 50 ms deadline on a heavy query must
// terminate kDeadlineExceeded in a small, bounded multiple of the deadline.
TEST_F(QueryLifecycleTest, DeadlineTerminatesHeavyQueryPromptly) {
  // Three-way course co-enrollment is cubic in students-per-course, so the
  // join emits enough rows to dwarf any deadline regardless of jvar order;
  // the trailing advisor hop keeps the middle student a graduate. Pruning
  // is disabled so all the work lands in the join phase the checks guard.
  constexpr char kCoEnrollment[] =
      "PREFIX ub: <http://lubm/>\n"
      "SELECT * WHERE { ?a ub:takesCourse ?c . ?b ub:takesCourse ?c . "
      "?d ub:takesCourse ?c . ?b ub:advisor ?p . }";
  EngineOptions options;
  options.enable_prune = false;
  auto count_rows = [](const RawRow&) {};

  // Grow the dataset until the unbounded run is comfortably past the
  // deadline, so the bounded run must abort mid-join. On a 4-vCPU Xeon the
  // Release build gets there at 32 universities; the cap only guards
  // against a runaway loop on a much faster machine.
  std::unique_ptr<Graph> graph;
  std::unique_ptr<TripleIndex> index;
  double unbounded_sec = 0;
  for (uint32_t universities = 8; universities <= 512; universities *= 2) {
    LubmConfig cfg;
    cfg.num_universities = universities;
    graph = std::make_unique<Graph>(Graph::FromTriples(GenerateLubm(cfg)));
    index = std::make_unique<TripleIndex>(TripleIndex::Build(*graph));
    Engine probe(index.get(), &graph->dict(), options);
    ParsedQuery parsed = Parser::Parse(kCoEnrollment);
    Stopwatch watch;
    probe.Execute(parsed, count_rows);
    unbounded_sec = watch.Seconds();
    if (unbounded_sec > 0.5) break;
  }
  ASSERT_GT(unbounded_sec, 0.1) << "calibration never got slow enough";

  Engine engine(index.get(), &graph->dict(), options);
  ParsedQuery parsed = Parser::Parse(kCoEnrollment);
  QueryControl control;
  control.SetTimeout(std::chrono::milliseconds(50));
  QueryStats stats;
  Stopwatch watch;
  try {
    engine.Execute(parsed, count_rows, &stats, &control);
    FAIL() << "expected the 50 ms deadline to fire (unbounded run took "
           << unbounded_sec << " s)";
  } catch (const QueryAbortedError& e) {
    EXPECT_EQ(e.code(), QueryTermination::kDeadlineExceeded);
  }
  double bounded_sec = watch.Seconds();
  EXPECT_EQ(stats.termination, QueryTermination::kDeadlineExceeded);
  // Bounded interval: the strided deadline poll fires every few hundred
  // cancellation checks, each check being one recursion node / emitted row
  // / chunk — milliseconds of slack, but allow generous CI jitter.
  EXPECT_LT(bounded_sec, 0.05 + 0.75);
  EXPECT_LT(bounded_sec, unbounded_sec);
}

// --- Admission control in the batch driver ------------------------------

TEST(AdmissionControlTest, OverCapacityQueriesAreShed) {
  LubmConfig cfg;
  cfg.num_universities = 1;
  Database db = Database::Build(GenerateLubm(cfg));
  ThreadPool pool(4);

  std::vector<std::string> queries(5, kSimpleQuery);
  BatchOptions options;
  options.pool = &pool;
  options.max_concurrent_queries = 1;
  options.max_queued_queries = 1;  // capacity = 1 runner + 1 queued
  std::vector<BatchResult> results = db.ExecuteBatch(queries, options);

  ASSERT_EQ(results.size(), 5u);
  int completed = 0, shed = 0;
  for (const BatchResult& r : results) {
    if (r.ok()) {
      ++completed;
      EXPECT_EQ(r.outcome.code, QueryTermination::kOk);
      EXPECT_GT(r.stats.num_results, 0u);
      EXPECT_GE(r.queue_wait_sec, 0.0);
    } else {
      ++shed;
      EXPECT_EQ(r.outcome.code, QueryTermination::kOverloaded);
      EXPECT_NE(r.error.find("overloaded"), std::string::npos);
      // Shed queries never ran: no stats, no rows.
      EXPECT_EQ(r.stats.num_results, 0u);
    }
  }
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(shed, 3);
}

TEST(AdmissionControlTest, UnboundedQueueAdmitsEverything) {
  LubmConfig cfg;
  cfg.num_universities = 1;
  Database db = Database::Build(GenerateLubm(cfg));
  ThreadPool pool(3);

  std::vector<std::string> queries(6, kSimpleQuery);
  BatchOptions options;
  options.pool = &pool;
  options.max_concurrent_queries = 2;  // queue is unbounded by default
  std::vector<BatchResult> results = db.ExecuteBatch(queries, options);
  ASSERT_EQ(results.size(), 6u);
  for (const BatchResult& r : results) {
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.outcome.code, QueryTermination::kOk);
  }
}

TEST(AdmissionControlTest, BatchTimeoutYieldsStructuredOutcome) {
  LubmConfig cfg;
  cfg.num_universities = 4;
  Database db = Database::Build(GenerateLubm(cfg));

  std::vector<std::string> queries = {kSimpleQuery};
  BatchOptions options;
  options.timeout_ms = 1;  // effectively instant: aborts during init
  // Run a few times serially; at least the structured plumbing must hold
  // whether or not the tiny query beats the deadline.
  std::vector<BatchResult> results = db.ExecuteBatch(queries, options);
  ASSERT_EQ(results.size(), 1u);
  const BatchResult& r = results[0];
  if (r.ok()) {
    EXPECT_EQ(r.outcome.code, QueryTermination::kOk);
  } else {
    EXPECT_EQ(r.outcome.code, QueryTermination::kDeadlineExceeded);
    EXPECT_EQ(r.stats.termination, QueryTermination::kDeadlineExceeded);
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(AdmissionControlTest, BatchMemoryBudgetAborts) {
  LubmConfig cfg;
  cfg.num_universities = 1;
  Database db = Database::Build(GenerateLubm(cfg));

  std::vector<std::string> queries = {kDeptTriangle};
  BatchOptions options;
  options.memory_budget = 64;  // below any BitMat load charge
  std::vector<BatchResult> results = db.ExecuteBatch(queries, options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].outcome.code, QueryTermination::kMemoryExceeded);
}

TEST(AdmissionControlTest, ParseErrorsReportKError) {
  Database db = Database::Build(
      {testing::T("a", "p", "b")});
  std::vector<BatchResult> results =
      db.ExecuteBatch({"THIS IS NOT SPARQL"}, BatchOptions{});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].outcome.code, QueryTermination::kError);
  EXPECT_FALSE(results[0].error.empty());
}

}  // namespace
}  // namespace lbr
