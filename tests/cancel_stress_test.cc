// Cancellation stress (DESIGN.md §9): a second thread flips the cancel
// latch at staggered delays while a query runs, and in rapid fire. Each
// run must either finish cleanly with the full answer or abort kCancelled
// with ZERO rows delivered to the sink (all-or-nothing: the sink only
// fires after the last branch completes), and the engine must stay fully
// usable after an abort. Runs in the TSan CI leg to certify the
// cross-thread latch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bitmat/triple_index.h"
#include "core/engine.h"
#include "core/row.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "util/query_control.h"
#include "workload/lubm_gen.h"

namespace lbr {
namespace {

using testing::Canonicalize;

constexpr char kTriangleQuery[] =
    "PREFIX ub: <http://lubm/>\n"
    "SELECT * WHERE { ?st ub:memberOf ?dept . ?prof ub:worksFor ?dept . "
    "?st ub:advisor ?prof . OPTIONAL { ?prof ub:emailAddress ?e . } }";

class CancelStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LubmConfig cfg;
    cfg.num_universities = 3;
    graph_ = new Graph(Graph::FromTriples(GenerateLubm(cfg)));
    index_ = new TripleIndex(TripleIndex::Build(*graph_));
    // The reference answer, computed once on a clean engine.
    Engine reference(index_, &graph_->dict());
    expected_ = new std::vector<std::string>(
        Canonicalize(reference.ExecuteToTable(kTriangleQuery)));
    ASSERT_FALSE(expected_->empty());
  }
  static void TearDownTestSuite() {
    delete expected_;
    delete index_;
    delete graph_;
    expected_ = nullptr;
    index_ = nullptr;
    graph_ = nullptr;
  }

  static Graph* graph_;
  static TripleIndex* index_;
  static std::vector<std::string>* expected_;
};

Graph* CancelStressTest::graph_ = nullptr;
TripleIndex* CancelStressTest::index_ = nullptr;
std::vector<std::string>* CancelStressTest::expected_ = nullptr;

void StressOneConfig(const TripleIndex* index, const Dictionary* dict,
                     const std::vector<std::string>& expected) {
  Engine engine(index, dict);
  ParsedQuery query = Parser::Parse(kTriangleQuery);

  // Staggered delays target different phases: 0 hits the entry check,
  // small delays land mid-init / mid-prune, larger ones mid-join or after
  // a natural finish (which must then complete cleanly).
  const int delays_us[] = {0, 200, 500, 1000, 2000, 5000, 10000};
  for (int delay_us : delays_us) {
    QueryControl control;
    std::atomic<uint64_t> sinked_rows{0};
    std::thread canceller([&control, delay_us] {
      if (delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      }
      control.Cancel();
    });
    bool aborted = false;
    uint64_t returned = 0;
    try {
      returned = engine.Execute(
          query,
          [&](const RawRow&) {
            sinked_rows.fetch_add(1, std::memory_order_relaxed);
          },
          nullptr, &control);
    } catch (const QueryAbortedError& e) {
      aborted = true;
      EXPECT_EQ(e.code(), QueryTermination::kCancelled);
    }
    canceller.join();
    if (aborted) {
      // All-or-nothing: an aborted query must not have leaked partial rows.
      EXPECT_EQ(sinked_rows.load(), 0u);
    } else {
      EXPECT_EQ(returned, expected.size());
      EXPECT_EQ(sinked_rows.load(), expected.size());
    }
  }

  // The engine must be fully reusable after the aborts above.
  ResultTable after = engine.ExecuteToTable(kTriangleQuery);
  EXPECT_EQ(Canonicalize(after), expected);
}

TEST_F(CancelStressTest, StaggeredCancellationIsAllOrNothing) {
  StressOneConfig(index_, &graph_->dict(), *expected_);
}

// Hammer one engine with rapid-fire cancellations from a second thread to
// chase races on the cross-thread latch (this is the hot test for the TSan
// leg).
TEST_F(CancelStressTest, RapidFireCancellation) {
  Engine engine(index_, &graph_->dict());
  ParsedQuery query = Parser::Parse(kTriangleQuery);

  for (int round = 0; round < 30; ++round) {
    QueryControl control;
    std::thread canceller([&control, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      control.Cancel();
    });
    try {
      engine.ExecuteToTable(query, nullptr, &control);
    } catch (const QueryAbortedError&) {
    }
    canceller.join();
  }
  ResultTable after = engine.ExecuteToTable(kTriangleQuery);
  EXPECT_EQ(Canonicalize(after), *expected_);
}

}  // namespace
}  // namespace lbr
