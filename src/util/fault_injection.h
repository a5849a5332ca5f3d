#ifndef LBR_UTIL_FAULT_INJECTION_H_
#define LBR_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace lbr {

/// Deterministic fault-site registry (DESIGN.md §12).
///
/// Every I/O and resource boundary of the store declares a named *site* and
/// asks the registry on each crossing whether to simulate a failure there.
/// Sites are disarmed by default — the disarmed check is one relaxed atomic
/// load, so production traffic pays nothing (bench/ablation_faults pins
/// this). Armed, a site fires according to a trigger spec:
///
///   nth=K    fire on every K-th crossing (K >= 1; K=1 fires always)
///   once=K   fire exactly once, on the K-th crossing
///   rate=P   fire each crossing with probability P, derived
///            deterministically from (seed, site, crossing sequence) — same
///            seed, same per-site crossing order, same faults
///
/// Arming comes from the LBR_FAULT environment variable
/// (`site:spec[,site:spec...]`, parsed strictly: malformed entries are
/// rejected with a warning, never half-applied) or the programmatic Arm()
/// test API. The site name `*` arms every *chaos-safe* site (injections the
/// system must absorb: retried or degraded, with query results unchanged);
/// `all` arms every site including the permanent ones whose injections make
/// operations fail by design. `LBR_FAULT_SEED=<u64>` seeds the rate
/// trigger.
///
/// Classification (DESIGN.md §12):
///  - transient sites simulate recoverable failures (a flaky read); the
///    boundary wraps itself in RetryTransient below, so an injected fault
///    is absorbed after a bounded exponential backoff unless the spec
///    re-fires on every attempt (nth=1).
///  - permanent sites simulate hard failures (media corruption, ENOSPC);
///    the boundary routes the injection through its *real* error path, so
///    the structured error taxonomy (SnapshotError codes, errno detail) is
///    exercised end to end.
enum class FaultSiteId : uint32_t {
  kTpCacheLoad = 0,        ///< TpCache single-flight load (transient).
  kTpLoaderLoad,           ///< LoadTpBitMat materialization (transient).
  kIndexMaterialize,       ///< TripleIndex slice decode, I/O half (transient).
  kIndexChecksum,          ///< Forced slice checksum mismatch (permanent;
                           ///< exercises per-predicate quarantine).
  kMappedFileMap,          ///< MappedFile::Open mmap failure (permanent).
  kMappedFileAdvise,       ///< madvise hint dropped (absorbed; hints are
                           ///< best-effort by contract).
  kThreadPoolDispatch,     ///< Task/chunk dispatch on the pool (transient).
  kQueryControlCharge,     ///< QueryControl::ChargeMemory (permanent).
  kSnapshotOpen,           ///< Database::OpenSnapshot map/read (permanent).
  kSnapshotWriteCreate,    ///< Snapshot temp-file creation (permanent).
  kSnapshotWriteWrite,     ///< Snapshot payload write (permanent).
  kSnapshotWriteFsync,     ///< Snapshot temp-file fsync (permanent).
  kSnapshotWriteRename,    ///< Atomic rename over the target (permanent).
  kSnapshotWriteDirSync,   ///< Directory fsync after rename (permanent).
  kNumSites,
};

/// Static classification of one site.
struct FaultSiteInfo {
  const char* name;  ///< Stable spec/env name, e.g. "tp_cache.load".
  bool transient;    ///< Retried with backoff at the boundary.
  bool chaos_safe;   ///< Armed by the `*` wildcard: the suite must pass
                     ///< with this site firing at a low rate.
};

/// Counter snapshot of one site (Stats()).
struct FaultSiteStats {
  const char* name = nullptr;
  FaultSiteId id = FaultSiteId::kNumSites;
  uint64_t hits = 0;      ///< Crossings while any site was armed.
  uint64_t injected = 0;  ///< Crossings that fired.
  uint64_t survived = 0;  ///< hits - injected.
  std::string spec;       ///< Armed trigger spec, empty when disarmed.
};

/// Thrown by MaybeInject at sites that surface the injection directly
/// (rather than routing it through the boundary's real error path).
/// RetryTransient absorbs transient ones; permanent ones unwind the query
/// as a structured error like any other std::runtime_error.
class FaultInjectedError : public std::runtime_error {
 public:
  FaultInjectedError(FaultSiteId site, const std::string& site_name,
                     bool transient)
      : std::runtime_error("injected fault at site " + site_name +
                           (transient ? " (transient)" : " (permanent)")),
        site_(site),
        transient_(transient) {}
  FaultSiteId site() const { return site_; }
  bool transient() const { return transient_; }

 private:
  FaultSiteId site_;
  bool transient_;
};

/// Process-global registry. All methods are thread-safe; arming/disarming
/// takes a mutex, the boundary checks are lock-free.
class FaultRegistry {
 public:
  /// The singleton; first use parses LBR_FAULT / LBR_FAULT_SEED.
  static FaultRegistry& Instance();

  static constexpr uint32_t kNumSites =
      static_cast<uint32_t>(FaultSiteId::kNumSites);
  static const FaultSiteInfo& InfoOf(FaultSiteId id);
  /// Resolves a spec/env site name; returns kNumSites when unknown.
  static FaultSiteId SiteByName(const std::string& name);

  /// Arms one site (or "*" / "all") with a trigger spec ("nth=K", "once=K",
  /// "once", "rate=P"). Returns false — leaving the site untouched — on an
  /// unknown name or malformed spec, with the reason in *error.
  bool Arm(const std::string& site, const std::string& spec,
           std::string* error = nullptr);

  /// Parses the LBR_FAULT syntax: comma-separated `site:spec` entries.
  /// Malformed entries (a bare integer included) are skipped with a
  /// warning on stderr, never half-applied. Returns the number of sites
  /// armed.
  int ArmFromString(const std::string& specs);

  void Disarm(FaultSiteId id);
  void DisarmAll();
  /// Zeroes every counter (hits/injected/retries) and re-arms nothing.
  void ResetCounters();
  /// Reseeds the rate trigger and resets per-site crossing sequences, so a
  /// reseeded run replays the same fault schedule.
  void SetSeed(uint64_t seed);

  /// The boundary check: counts a crossing and returns true when the armed
  /// spec fires (counting the injection). Used by sites that route the
  /// failure through their real error path (errno, SnapshotError). Free
  /// when nothing is armed anywhere.
  bool ShouldInject(FaultSiteId id);
  /// ShouldInject + throw FaultInjectedError carrying the site's
  /// classification.
  void MaybeInject(FaultSiteId id);

  uint64_t hits(FaultSiteId id) const;
  uint64_t injected(FaultSiteId id) const;
  uint64_t survived(FaultSiteId id) const;
  uint64_t injected_total() const {
    return injected_total_.load(std::memory_order_relaxed);
  }
  /// Backoff retries of transient faults (RetryTransient reports here; the
  /// engine snapshots deltas into QueryStats::fault_retries).
  uint64_t retries_total() const {
    return retries_total_.load(std::memory_order_relaxed);
  }
  void CountRetry() {
    retries_total_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Per-site counter snapshot (every registered site, armed or not).
  std::vector<FaultSiteStats> Stats() const;

  bool armed_anywhere() const {
    return armed_sites_.load(std::memory_order_relaxed) != 0;
  }

 private:
  FaultRegistry();

  enum Mode : uint32_t { kOff = 0, kNth = 1, kOnce = 2, kRate = 3 };

  struct Site {
    std::atomic<uint32_t> mode{kOff};
    /// kNth/kOnce: the K. kRate: the 64-bit fire threshold.
    std::atomic<uint64_t> param{0};
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> injected{0};
  };

  bool ArmOne(FaultSiteId id, Mode mode, uint64_t param);
  bool ParseSpec(const std::string& spec, Mode* mode, uint64_t* param,
                 std::string* error) const;
  bool Fires(Site& s, FaultSiteId id);

  Site sites_[kNumSites];
  std::atomic<uint32_t> armed_sites_{0};
  std::atomic<uint64_t> injected_total_{0};
  std::atomic<uint64_t> retries_total_{0};
  std::atomic<uint64_t> seed_;
  std::mutex arm_mu_;  ///< Serializes Arm/Disarm/Reset (not the checks).
};

/// Bounded exponential backoff for transient faults. Worst case with the
/// defaults: 4 attempts, ~50+100+200 µs of sleep — bounded recovery
/// latency, measured by bench/ablation_faults.
struct RetryPolicy {
  int max_attempts = 4;
  uint32_t base_delay_us = 50;
  uint32_t max_delay_us = 2000;
};

/// Sleeps the backoff for `attempt` (1-based) with deterministic jitter
/// derived from (site, attempt) via util/rng.
void FaultBackoffSleep(int attempt, const RetryPolicy& policy,
                       FaultSiteId site);

/// Runs `fn`, absorbing *transient* injected faults with bounded
/// exponential backoff: up to policy.max_attempts attempts, each retry
/// counted in the registry. Permanent injections and real errors propagate
/// immediately; exhausting the budget rethrows the last transient fault —
/// so a spec that fires on every attempt (nth=1) still surfaces, which is
/// how tests exercise the boundary's failure path.
template <typename Fn>
auto RetryTransient(Fn&& fn, const RetryPolicy& policy = {})
    -> decltype(fn()) {
  for (int attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const FaultInjectedError& e) {
      if (!e.transient() || attempt >= policy.max_attempts) throw;
      FaultRegistry::Instance().CountRetry();
      FaultBackoffSleep(attempt, policy, e.site());
    }
  }
}

}  // namespace lbr

#endif  // LBR_UTIL_FAULT_INJECTION_H_
