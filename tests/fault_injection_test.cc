// Tests for util/fault_injection (DESIGN.md §12): site registry
// determinism, trigger specs, strict env parsing, wildcard classification,
// and the transient-retry boundary. The registry is process-global, so
// every test starts from a disarmed, zeroed state.

#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lbr {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisarmAll();
    FaultRegistry::Instance().ResetCounters();
  }
  void TearDown() override {
    FaultRegistry::Instance().DisarmAll();
    FaultRegistry::Instance().ResetCounters();
  }
};

TEST_F(FaultInjectionTest, SiteNamesRoundTrip) {
  for (uint32_t i = 0; i < FaultRegistry::kNumSites; ++i) {
    FaultSiteId id = static_cast<FaultSiteId>(i);
    const FaultSiteInfo& info = FaultRegistry::InfoOf(id);
    ASSERT_NE(info.name, nullptr);
    EXPECT_EQ(FaultRegistry::SiteByName(info.name), id)
        << "site name '" << info.name << "' does not round-trip";
  }
  EXPECT_EQ(FaultRegistry::SiteByName("no.such.site"),
            FaultSiteId::kNumSites);
}

TEST_F(FaultInjectionTest, DisarmedIsFreeAndCountsNothing) {
  FaultRegistry& reg = FaultRegistry::Instance();
  EXPECT_FALSE(reg.armed_anywhere());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(reg.ShouldInject(FaultSiteId::kTpCacheLoad));
  }
  // The disarmed fast path must not even count crossings — that is the
  // zero-overhead contract bench/ablation_faults pins.
  EXPECT_EQ(reg.hits(FaultSiteId::kTpCacheLoad), 0u);
  EXPECT_EQ(reg.injected_total(), 0u);
}

TEST_F(FaultInjectionTest, NthTriggerFiresEveryKth) {
  FaultRegistry& reg = FaultRegistry::Instance();
  ASSERT_TRUE(reg.Arm("tp_cache.load", "nth=3"));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(reg.ShouldInject(FaultSiteId::kTpCacheLoad));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
  EXPECT_EQ(reg.hits(FaultSiteId::kTpCacheLoad), 9u);
  EXPECT_EQ(reg.injected(FaultSiteId::kTpCacheLoad), 3u);
  EXPECT_EQ(reg.survived(FaultSiteId::kTpCacheLoad), 6u);
}

TEST_F(FaultInjectionTest, OnceTriggerFiresExactlyOnceThenDisarms) {
  FaultRegistry& reg = FaultRegistry::Instance();
  ASSERT_TRUE(reg.Arm("snapshot.open", "once=2"));
  EXPECT_TRUE(reg.armed_anywhere());
  EXPECT_FALSE(reg.ShouldInject(FaultSiteId::kSnapshotOpen));
  EXPECT_TRUE(reg.ShouldInject(FaultSiteId::kSnapshotOpen));
  // Self-disarmed: later crossings never fire again.
  EXPECT_FALSE(reg.armed_anywhere());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(reg.ShouldInject(FaultSiteId::kSnapshotOpen));
  }
  EXPECT_EQ(reg.injected(FaultSiteId::kSnapshotOpen), 1u);

  // Bare "once" means once=1: the very next crossing.
  ASSERT_TRUE(reg.Arm("snapshot.open", "once"));
  EXPECT_TRUE(reg.ShouldInject(FaultSiteId::kSnapshotOpen));
  EXPECT_FALSE(reg.ShouldInject(FaultSiteId::kSnapshotOpen));
}

TEST_F(FaultInjectionTest, RateTriggerIsDeterministicPerSeed) {
  FaultRegistry& reg = FaultRegistry::Instance();
  auto schedule = [&](uint64_t seed) {
    reg.SetSeed(seed);  // also resets per-site crossing sequences
    EXPECT_TRUE(reg.Arm("index.materialize", "rate=0.5"));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(reg.ShouldInject(FaultSiteId::kIndexMaterialize));
    }
    reg.Disarm(FaultSiteId::kIndexMaterialize);
    return fired;
  };
  std::vector<bool> a = schedule(42);
  std::vector<bool> b = schedule(42);
  std::vector<bool> c = schedule(43);
  EXPECT_EQ(a, b);  // same seed, same per-site order => same faults
  EXPECT_NE(a, c);  // different seed => different schedule
  // rate=0.5 over 64 crossings should fire at least once and not always.
  size_t fires = 0;
  for (bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
}

TEST_F(FaultInjectionTest, RateOneAlwaysFires) {
  FaultRegistry& reg = FaultRegistry::Instance();
  ASSERT_TRUE(reg.Arm("tp_loader.load", "rate=1.0"));
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(reg.ShouldInject(FaultSiteId::kTpLoaderLoad));
  }
}

TEST_F(FaultInjectionTest, MalformedSpecsAreRejectedNotHalfApplied) {
  FaultRegistry& reg = FaultRegistry::Instance();
  std::string error;
  EXPECT_FALSE(reg.Arm("tp_cache.load", "nth=0", &error));
  EXPECT_FALSE(reg.Arm("tp_cache.load", "nth=abc", &error));
  EXPECT_FALSE(reg.Arm("tp_cache.load", "nth=", &error));
  EXPECT_FALSE(reg.Arm("tp_cache.load", "rate=0", &error));
  EXPECT_FALSE(reg.Arm("tp_cache.load", "rate=1.5", &error));
  EXPECT_FALSE(reg.Arm("tp_cache.load", "rate=", &error));
  EXPECT_FALSE(reg.Arm("tp_cache.load", "bogus=1", &error));
  EXPECT_NE(error.find("unknown trigger"), std::string::npos);
  EXPECT_FALSE(reg.Arm("no.such.site", "nth=1", &error));
  EXPECT_NE(error.find("unknown fault site"), std::string::npos);
  // Nothing was half-applied by any of the rejections.
  EXPECT_FALSE(reg.armed_anywhere());

  // ArmFromString skips malformed entries and arms the valid ones.
  // A bare integer (the retired per-cache rate form) is one more
  // malformed entry.
  EXPECT_EQ(reg.ArmFromString("3"), 0);
  EXPECT_FALSE(reg.armed_anywhere());
  int armed = reg.ArmFromString(
      "tp_cache.load:nth=2,garbage,missing-colon-entry=1,7,"
      "index.checksum:rate=2.0,snapshot.open:once");
  EXPECT_EQ(armed, 2);  // tp_cache.load + snapshot.open
  std::vector<FaultSiteStats> stats = FaultRegistry::Instance().Stats();
  for (const FaultSiteStats& st : stats) {
    if (st.id == FaultSiteId::kTpCacheLoad) {
      EXPECT_EQ(st.spec, "nth=2");
    }
    if (st.id == FaultSiteId::kSnapshotOpen) {
      EXPECT_EQ(st.spec, "once=1");
    }
    if (st.id == FaultSiteId::kIndexChecksum) {
      EXPECT_TRUE(st.spec.empty());
    }
  }
}

TEST_F(FaultInjectionTest, WildcardArmsOnlyChaosSafeSites) {
  FaultRegistry& reg = FaultRegistry::Instance();
  ASSERT_TRUE(reg.Arm("*", "nth=1"));
  for (const FaultSiteStats& st : reg.Stats()) {
    const FaultSiteInfo& info = FaultRegistry::InfoOf(st.id);
    EXPECT_EQ(!st.spec.empty(), info.chaos_safe)
        << "'*' mis-armed site " << st.name;
  }
  reg.DisarmAll();
  ASSERT_TRUE(reg.Arm("all", "nth=1"));
  for (const FaultSiteStats& st : reg.Stats()) {
    EXPECT_FALSE(st.spec.empty()) << "'all' skipped site " << st.name;
  }
}

TEST_F(FaultInjectionTest, MaybeInjectThrowsClassifiedError) {
  FaultRegistry& reg = FaultRegistry::Instance();
  ASSERT_TRUE(reg.Arm("tp_cache.load", "nth=1"));
  try {
    reg.MaybeInject(FaultSiteId::kTpCacheLoad);
    FAIL() << "expected FaultInjectedError";
  } catch (const FaultInjectedError& e) {
    EXPECT_EQ(e.site(), FaultSiteId::kTpCacheLoad);
    EXPECT_TRUE(e.transient());
    EXPECT_NE(std::string(e.what()).find("tp_cache.load"),
              std::string::npos);
  }
  ASSERT_TRUE(reg.Arm("snapshot.open", "nth=1"));
  try {
    reg.MaybeInject(FaultSiteId::kSnapshotOpen);
    FAIL() << "expected FaultInjectedError";
  } catch (const FaultInjectedError& e) {
    EXPECT_FALSE(e.transient());
  }
}

TEST_F(FaultInjectionTest, RetryTransientAbsorbsRecoverableFaults) {
  FaultRegistry& reg = FaultRegistry::Instance();
  // nth=2: the first crossing survives, the second faults, the retry's
  // crossing (seq 3) survives — absorbed with exactly one backoff.
  ASSERT_TRUE(reg.Arm("thread_pool.dispatch", "nth=2"));
  int runs = 0;
  reg.ShouldInject(FaultSiteId::kThreadPoolDispatch);  // burn seq 1
  EXPECT_NO_THROW(RetryTransient([&] {
    ++runs;
    reg.MaybeInject(FaultSiteId::kThreadPoolDispatch);
  }));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(reg.retries_total(), 1u);
}

TEST_F(FaultInjectionTest, RetryTransientExhaustsOnPersistentFaults) {
  FaultRegistry& reg = FaultRegistry::Instance();
  // nth=1 fires on every attempt: the budget exhausts and the last fault
  // surfaces — how tests drive a boundary's failure path deterministically.
  ASSERT_TRUE(reg.Arm("index.materialize", "nth=1"));
  RetryPolicy policy;
  int runs = 0;
  EXPECT_THROW(RetryTransient(
                   [&] {
                     ++runs;
                     reg.MaybeInject(FaultSiteId::kIndexMaterialize);
                   },
                   policy),
               FaultInjectedError);
  EXPECT_EQ(runs, policy.max_attempts);
  EXPECT_EQ(reg.retries_total(),
            static_cast<uint64_t>(policy.max_attempts - 1));
}

TEST_F(FaultInjectionTest, RetryTransientPropagatesPermanentImmediately) {
  FaultRegistry& reg = FaultRegistry::Instance();
  ASSERT_TRUE(reg.Arm("query_control.charge", "nth=1"));
  int runs = 0;
  EXPECT_THROW(RetryTransient([&] {
                 ++runs;
                 reg.MaybeInject(FaultSiteId::kQueryControlCharge);
               }),
               FaultInjectedError);
  EXPECT_EQ(runs, 1);  // permanent faults are never retried
  EXPECT_EQ(reg.retries_total(), 0u);
}

TEST_F(FaultInjectionTest, StatsSnapshotCoversEverySite) {
  FaultRegistry& reg = FaultRegistry::Instance();
  std::vector<FaultSiteStats> stats = reg.Stats();
  ASSERT_EQ(stats.size(), FaultRegistry::kNumSites);
  ASSERT_TRUE(reg.Arm("mapped_file.advise", "nth=1"));
  reg.ShouldInject(FaultSiteId::kMappedFileAdvise);
  stats = reg.Stats();
  bool found = false;
  for (const FaultSiteStats& st : stats) {
    if (st.id != FaultSiteId::kMappedFileAdvise) continue;
    found = true;
    EXPECT_STREQ(st.name, "mapped_file.advise");
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.injected, 1u);
    EXPECT_EQ(st.spec, "nth=1");
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace lbr
