// Contention coverage for the shared TpCache: single-flight loads,
// snapshot isolation across threads, and monotone counters under
// concurrent GetOrLoad of the same and distinct patterns. These tests run
// under the Debug-TSan CI leg, so any locking hole shows up as a data
// race, not just a flaky assertion.

#include "bitmat/tp_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bitmat/tp_loader.h"
#include "bitmat/triple_index.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "workload/lubm_gen.h"

namespace lbr {
namespace {

using testing::MakeGraph;

TriplePattern VarPredVar(const std::string& pred_iri) {
  return TriplePattern(PatternTerm::Var("a"),
                       PatternTerm::Fixed(Term::Iri(pred_iri)),
                       PatternTerm::Var("b"));
}

/// Releases N threads as close to simultaneously as possible.
class StartGate {
 public:
  explicit StartGate(int expected) : expected_(expected) {}
  void ArriveAndWait() {
    std::unique_lock<std::mutex> lk(mu_);
    if (++arrived_ == expected_) {
      cv_.notify_all();
    } else {
      cv_.wait(lk, [this] { return arrived_ >= expected_; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  int expected_;
};

/// Arms one fault site, and nothing else, for the guard's lifetime:
/// disarms every site (including any LBR_FAULT arming) and zeroes the
/// registry counters first, so a test can assert exact counts.
class OnlyArmedSite {
 public:
  OnlyArmedSite(const std::string& site, const std::string& spec) {
    FaultRegistry& faults = FaultRegistry::Instance();
    faults.DisarmAll();
    faults.ResetCounters();
    EXPECT_TRUE(faults.Arm(site, spec));
  }
  ~OnlyArmedSite() { FaultRegistry::Instance().DisarmAll(); }
  OnlyArmedSite(const OnlyArmedSite&) = delete;
  OnlyArmedSite& operator=(const OnlyArmedSite&) = delete;
};

class TpCacheConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LubmConfig cfg;
    cfg.num_universities = 2;
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

Graph* TpCacheConcurrencyTest::graph_ = nullptr;
TripleIndex* TpCacheConcurrencyTest::index_ = nullptr;

TEST_F(TpCacheConcurrencyTest, ConcurrentSameKeyLoadsOnce) {
  constexpr int kThreads = 8;
  TpCache cache(/*triple_budget=*/~uint64_t{0});
  TriplePattern tp = VarPredVar(lubm::kTakesCourse);

  StartGate gate(kThreads);
  std::vector<uint64_t> counts(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.ArriveAndWait();
      TpBitMat snap = cache.GetOrLoad(*index_, graph_->dict(), tp, true);
      counts[t] = snap.bm.Count();
    });
  }
  for (std::thread& t : threads) t.join();

  // Single-load semantics: exactly one thread scanned the index; everyone
  // else was served the published entry as a hit.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(counts[0], 0u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(counts[t], counts[0]);
}

TEST_F(TpCacheConcurrencyTest, DistinctKeysLoadIndependently) {
  const std::vector<std::string> preds = {
      lubm::kTakesCourse, lubm::kAdvisor,   lubm::kTeacherOf,
      lubm::kWorksFor,    lubm::kMemberOf,  lubm::kHeadOf,
      lubm::kEmailAddress, lubm::kTelephone};
  TpCache cache(/*triple_budget=*/~uint64_t{0});

  StartGate gate(static_cast<int>(preds.size()));
  std::vector<std::thread> threads;
  for (const std::string& pred : preds) {
    threads.emplace_back([&, pred] {
      gate.ArriveAndWait();
      // Each thread loads its own pattern twice: one miss, one hit.
      TriplePattern tp = VarPredVar(pred);
      cache.GetOrLoad(*index_, graph_->dict(), tp, true);
      cache.GetOrLoad(*index_, graph_->dict(), tp, true);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(cache.misses(), preds.size());
  EXPECT_EQ(cache.hits(), preds.size());
  EXPECT_EQ(cache.size(), preds.size());
}

TEST_F(TpCacheConcurrencyTest, SnapshotIsolationAcrossThreads) {
  constexpr int kThreads = 8;
  TpCache cache(/*triple_budget=*/~uint64_t{0});
  TriplePattern tp = VarPredVar(lubm::kTakesCourse);
  uint64_t full_count =
      cache.GetOrLoad(*index_, graph_->dict(), tp, true).bm.Count();
  ASSERT_GT(full_count, 0u);

  // Each thread folds its own copy (BitMats are thread-confined); the
  // cached entry itself is never folded.
  const Bitvector serial_fold =
      cache.GetOrLoad(*index_, graph_->dict(), tp, true).bm.DeepCopy().Fold(
          Dim::kCol);

  // Every thread folds its snapshot twice and mutates it (wipes a distinct
  // row range); the cached entry and the other threads' snapshots must be
  // unaffected.
  StartGate gate(kThreads);
  std::atomic<int> isolation_failures{0};
  std::atomic<int> fold_mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.ArriveAndWait();
      for (int round = 0; round < 5; ++round) {
        TpBitMat snap = cache.GetOrLoad(*index_, graph_->dict(), tp, true);
        if (snap.bm.Count() != full_count) {
          isolation_failures.fetch_add(1);
          return;
        }
        for (int fold = 0; fold < 2; ++fold) {
          Bitvector cols;
          snap.bm.FoldInto(Dim::kCol, &cols);
          if (cols != serial_fold) fold_mismatches.fetch_add(1);
        }
        // Keep only rows in this thread's stripe, then wipe everything.
        Bitvector keep(snap.bm.num_rows());
        for (uint32_t r = static_cast<uint32_t>(t);
             r < snap.bm.num_rows(); r += kThreads) {
          keep.Set(r);
        }
        snap.bm.Unfold(keep, Dim::kRow);
        Bitvector none(snap.bm.num_rows());
        snap.bm.Unfold(none, Dim::kRow);
        if (!snap.bm.IsEmpty()) isolation_failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(isolation_failures.load(), 0);
  EXPECT_EQ(fold_mismatches.load(), 0);
  TpBitMat after = cache.GetOrLoad(*index_, graph_->dict(), tp, true);
  EXPECT_EQ(after.bm.Count(), full_count);
}

TEST_F(TpCacheConcurrencyTest, MaskedCopyOutUnderConcurrentHits) {
  constexpr int kThreads = 6;
  TpCache cache(/*triple_budget=*/~uint64_t{0});
  TriplePattern tp = VarPredVar(lubm::kTakesCourse);
  TpBitMat full = cache.GetOrLoad(*index_, graph_->dict(), tp, true);

  StartGate gate(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.ArriveAndWait();
      ExecContext ctx;
      Bitvector row_mask(full.bm.num_rows());
      for (uint32_t r = static_cast<uint32_t>(t); r < full.bm.num_rows();
           r += kThreads) {
        row_mask.Set(r);
      }
      ActiveMasks masks;
      masks.row_mask = &row_mask;
      for (int round = 0; round < 5; ++round) {
        TpBitMat masked = cache.GetOrLoadMasked(*index_, graph_->dict(), tp,
                                                true, masks, &ctx);
        // The masked copy must hold exactly the rows of this stripe.
        uint64_t expected = 0;
        row_mask.ForEachSetBit(
            [&](uint32_t r) { expected += full.bm.Row(r).Count(); });
        if (masked.bm.Count() != expected) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(TpCacheConcurrencyTest, UncacheableKeyDoesNotSerializeCallers) {
  // A pattern bigger than the whole budget is never inserted. Waiters that
  // slept behind the first load must then load for themselves *without*
  // re-claiming single-flight one at a time — every caller completes and
  // is counted as a miss, and the key is never left marked in-flight.
  constexpr int kThreads = 8;
  TpCache cache(/*triple_budget=*/1);  // every real slice is over budget
  TriplePattern tp = VarPredVar(lubm::kTakesCourse);

  StartGate gate(kThreads);
  std::atomic<uint64_t> total_bits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      gate.ArriveAndWait();
      TpBitMat snap = cache.GetOrLoad(*index_, graph_->dict(), tp, true);
      total_bits.fetch_add(snap.bm.Count());
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), static_cast<uint64_t>(kThreads));
  // All callers got the full matrix.
  uint64_t one = cache.GetOrLoad(*index_, graph_->dict(), tp, true).bm.Count();
  EXPECT_EQ(total_bits.load(), one * kThreads);
}

TEST_F(TpCacheConcurrencyTest, CountersAreMonotoneUnderLoad) {
  constexpr int kWorkers = 4;
  TpCache cache(/*triple_budget=*/~uint64_t{0});
  const std::vector<std::string> preds = {lubm::kTakesCourse, lubm::kAdvisor,
                                          lubm::kTeacherOf, lubm::kWorksFor};

  std::atomic<bool> stop{false};
  std::atomic<int> monotonicity_failures{0};
  // A sampler thread watches the counters while workers hammer the cache:
  // hits/misses must never step backwards from any observer's view.
  std::thread sampler([&] {
    uint64_t last_hits = 0, last_misses = 0, last_contention = 0;
    while (!stop.load()) {
      uint64_t h = cache.hits();
      uint64_t m = cache.misses();
      uint64_t c = cache.lock_contention();
      if (h < last_hits || m < last_misses || c < last_contention) {
        monotonicity_failures.fetch_add(1);
      }
      last_hits = h;
      last_misses = m;
      last_contention = c;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < 50; ++i) {
        TriplePattern tp = VarPredVar(preds[(w + i) % preds.size()]);
        cache.GetOrLoad(*index_, graph_->dict(), tp, true);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true);
  sampler.join();

  EXPECT_EQ(monotonicity_failures.load(), 0);
  EXPECT_EQ(cache.misses(), preds.size());
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kWorkers * 50));
  // Accounting stays consistent after the storm.
  EXPECT_EQ(cache.size(), preds.size());
  EXPECT_GT(cache.held_triples(), 0u);
}

TEST_F(TpCacheConcurrencyTest, SharedCacheEnginesAgreeWithPrivateEngines) {
  // The server deployment shape: N engines, one cache.
  constexpr int kThreads = 6;
  EngineOptions options;
  options.enable_tp_cache = true;
  auto shared = std::make_shared<TpCache>();

  const std::string query =
      "PREFIX ub: <http://lubm/> SELECT * WHERE { ?x ub:worksFor ?d . "
      "OPTIONAL { ?x ub:emailAddress ?e . } }";
  Engine reference(index_, &graph_->dict());
  std::vector<std::string> expected =
      testing::Canonicalize(reference.ExecuteToTable(query));

  StartGate gate(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Engine engine(index_, &graph_->dict(), options, shared);
      gate.ArriveAndWait();
      for (int i = 0; i < 4; ++i) {
        if (testing::Canonicalize(engine.ExecuteToTable(query)) != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(shared->hits(), 0u);
}

TEST_F(TpCacheConcurrencyTest, InjectedFaultFailsEveryNthLoad) {
  // The `tp_cache.load` site at nth=2: the second claiming load faults,
  // the RetryTransient boundary absorbs it (the backoff retry is the
  // third crossing and lands), and the caller never observes the failure.
  OnlyArmedSite site("tp_cache.load", "nth=2");
  FaultRegistry& faults = FaultRegistry::Instance();
  TpCache cache(/*triple_budget=*/~uint64_t{0});
  TriplePattern a = VarPredVar(lubm::kTakesCourse);
  TriplePattern b = VarPredVar(lubm::kAdvisor);
  EXPECT_NO_THROW(cache.GetOrLoad(*index_, graph_->dict(), a, true));
  EXPECT_NO_THROW(cache.GetOrLoad(*index_, graph_->dict(), b, true));
  EXPECT_EQ(faults.injected(FaultSiteId::kTpCacheLoad), 1u);
  EXPECT_EQ(faults.retries_total(), 1u);
  // Both entries published despite the fault; hits bypass the site.
  EXPECT_NO_THROW(cache.GetOrLoad(*index_, graph_->dict(), b, true));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(faults.injected(FaultSiteId::kTpCacheLoad), 1u);
}

TEST_F(TpCacheConcurrencyTest, FaultedLoadDoesNotPoisonSingleFlight) {
  // The single-flight claimer throws (injected fault) while waiters sleep
  // on the cache's CV. Every waiter must observe the failure — wake, find no
  // entry, and run its own uncached load (which crosses the armed site
  // too) — with no hang and no key left marked in-flight. The test
  // completing at all is the no-hang assertion.
  constexpr int kThreads = 8;
  OnlyArmedSite site("tp_cache.load", "nth=1");  // every cache load
  TpCache cache(/*triple_budget=*/~uint64_t{0});
  TriplePattern tp = VarPredVar(lubm::kTakesCourse);

  StartGate gate(kThreads);
  std::atomic<int> failures{0};
  std::atomic<int> successes{0};
  std::atomic<int> wrong_counts{0};
  uint64_t full_count = LoadTpBitMat(*index_, graph_->dict(), tp, true)
                            .bm.Count();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      gate.ArriveAndWait();
      try {
        TpBitMat snap = cache.GetOrLoad(*index_, graph_->dict(), tp, true);
        successes.fetch_add(1);
        if (snap.bm.Count() != full_count) wrong_counts.fetch_add(1);
      } catch (const std::runtime_error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(successes.load() + failures.load(), kThreads);
  EXPECT_GE(failures.load(), 1);       // at least the first claimer faulted
  EXPECT_EQ(wrong_counts.load(), 0);   // any load that landed is complete
  EXPECT_GE(FaultRegistry::Instance().injected(FaultSiteId::kTpCacheLoad),
            1u);
  EXPECT_EQ(cache.size(), 0u);         // nothing was published

  // No poisoned entry: with the site disarmed, the key loads and publishes.
  FaultRegistry::Instance().Disarm(FaultSiteId::kTpCacheLoad);
  TpBitMat after = cache.GetOrLoad(*index_, graph_->dict(), tp, true);
  EXPECT_EQ(after.bm.Count(), full_count);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(TpCacheConcurrencyTest, SmallGraphSanity) {
  // Single-thread semantics on a toy graph: no contention, no waits.
  Graph g = MakeGraph({{"a", "p", "b"}, {"b", "p", "c"}});
  TripleIndex idx = TripleIndex::Build(g);
  TpCache cache;
  TriplePattern tp(PatternTerm::Var("x"),
                   PatternTerm::Fixed(Term::Iri("p")), PatternTerm::Var("y"));
  TpBitMat first = cache.GetOrLoad(idx, g.dict(), tp, true);
  TpBitMat second = cache.GetOrLoad(idx, g.dict(), tp, true);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.bm, second.bm);
  EXPECT_EQ(cache.lock_contention(), 0u);
  EXPECT_EQ(cache.single_flight_waits(), 0u);
}

}  // namespace
}  // namespace lbr
