// Batch execution: Engine::ExecuteBatch runs whole queries side by side
// on a ThreadPool, one engine per runner, all sharing one TP cache. The
// answers must match one engine running the same queries in order.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bitmat/tp_cache.h"
#include "core/engine.h"
#include "test_util.h"
#include "util/thread_pool.h"
#include "workload/lubm_gen.h"
#include "workload/query_sets.h"

namespace lbr {
namespace {

class BatchExecutionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LubmConfig cfg;
    cfg.num_universities = 3;
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

Graph* BatchExecutionTest::graph_ = nullptr;
TripleIndex* BatchExecutionTest::index_ = nullptr;

TEST_F(BatchExecutionTest, BatchMatchesSequentialExecution) {
  std::vector<std::string> queries;
  for (const BenchQuery& q : LubmQueries()) queries.push_back(q.sparql);
  queries.push_back("SELECT * WHERE { ?x <no-such-predicate> ?y }");
  queries.push_back("THIS IS NOT SPARQL");

  Engine reference(index_, &graph_->dict());
  std::vector<std::vector<std::string>> expected;
  for (const std::string& q : queries) {
    try {
      expected.push_back(testing::Canonicalize(reference.ExecuteToTable(q)));
    } catch (const std::exception&) {
      expected.push_back({"<error>"});
    }
  }

  ThreadPool pool(4);
  BatchOptions options;
  options.engine.enable_tp_cache = true;
  options.pool = &pool;
  std::vector<BatchResult> results =
      Engine::ExecuteBatch(*index_, graph_->dict(), queries, options);

  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (expected[i] == std::vector<std::string>{"<error>"}) {
      EXPECT_FALSE(results[i].ok()) << queries[i];
      EXPECT_FALSE(results[i].error.empty());
    } else {
      ASSERT_TRUE(results[i].ok()) << results[i].error;
      EXPECT_EQ(testing::Canonicalize(results[i].table), expected[i])
          << queries[i];
    }
  }
}

TEST_F(BatchExecutionTest, BatchSharesOneWarmCache) {
  // The same query repeated across the batch: the first execution misses,
  // every other execution on any worker hits the shared cache.
  const std::string q =
      "PREFIX ub: <http://lubm/> SELECT * WHERE { ?x ub:worksFor ?d . }";
  std::vector<std::string> queries(12, q);

  ThreadPool pool(4);
  BatchOptions options;
  options.engine.enable_tp_cache = true;
  options.pool = &pool;
  options.shared_cache = std::make_shared<TpCache>();
  std::vector<BatchResult> results =
      Engine::ExecuteBatch(*index_, graph_->dict(), queries, options);

  uint64_t rows0 = results[0].stats.num_results;
  EXPECT_GT(rows0, 0u);
  for (const BatchResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.stats.num_results, rows0);
  }
  // Single-flight: the pattern was scanned exactly once cache-wide.
  EXPECT_EQ(options.shared_cache->misses(), 1u);
  EXPECT_EQ(options.shared_cache->hits(), 11u);
}

}  // namespace
}  // namespace lbr
