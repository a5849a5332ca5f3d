#include "util/fault_injection.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/rng.h"

namespace lbr {

namespace {

// Order must match FaultSiteId.
constexpr FaultSiteInfo kSites[FaultRegistry::kNumSites] = {
    {"tp_cache.load", /*transient=*/true, /*chaos_safe=*/true},
    {"tp_loader.load", true, true},
    {"index.materialize", true, true},
    {"index.checksum", false, false},
    {"mapped_file.map", false, false},
    {"mapped_file.advise", false, true},  // absorbed: hints are best-effort
    {"thread_pool.dispatch", true, true},
    {"query_control.charge", false, false},
    {"snapshot.open", false, false},
    {"snapshot.write.create", false, false},
    {"snapshot.write.write", false, false},
    {"snapshot.write.fsync", false, false},
    {"snapshot.write.rename", false, false},
    {"snapshot.write.dirsync", false, false},
};

// SplitMix64: a stateless mix of (seed, site, seq) for the rate trigger, so
// firing is a pure function of the crossing coordinates — no shared RNG
// state to race on.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void WarnSpec(const std::string& entry, const std::string& why) {
  std::fprintf(stderr, "[lbr] LBR_FAULT: rejecting entry '%s': %s\n",
               entry.c_str(), why.c_str());
}

// Strict positive-integer parse into [1, cap]; rejects empty, sign, junk
// suffixes, and overflow.
bool ParseUint(const std::string& text, uint64_t cap, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    if (v > cap / 10) return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
    if (v > cap) return false;
  }
  if (v == 0) return false;
  *out = v;
  return true;
}

}  // namespace

FaultRegistry::FaultRegistry() : seed_(0x9E3779B97F4A7C15ull) {
  if (const char* seed_env = std::getenv("LBR_FAULT_SEED")) {
    uint64_t seed = 0;
    if (ParseUint(seed_env, ~uint64_t{0}, &seed)) {
      seed_.store(seed, std::memory_order_relaxed);
    } else {
      std::fprintf(stderr,
                   "[lbr] LBR_FAULT_SEED: '%s' is not a positive integer "
                   "(ignored)\n",
                   seed_env);
    }
  }
  if (const char* spec = std::getenv("LBR_FAULT")) ArmFromString(spec);
}

FaultRegistry& FaultRegistry::Instance() {
  static FaultRegistry* registry = new FaultRegistry();  // never destroyed
  return *registry;
}

const FaultSiteInfo& FaultRegistry::InfoOf(FaultSiteId id) {
  return kSites[static_cast<uint32_t>(id)];
}

FaultSiteId FaultRegistry::SiteByName(const std::string& name) {
  for (uint32_t i = 0; i < kNumSites; ++i) {
    if (name == kSites[i].name) return static_cast<FaultSiteId>(i);
  }
  return FaultSiteId::kNumSites;
}

bool FaultRegistry::ParseSpec(const std::string& spec, Mode* mode,
                              uint64_t* param, std::string* error) const {
  std::string name = spec;
  std::string value;
  size_t eq = spec.find('=');
  if (eq != std::string::npos) {
    name = spec.substr(0, eq);
    value = spec.substr(eq + 1);
  }
  if (name == "nth" || name == "once") {
    *mode = name == "nth" ? kNth : kOnce;
    if (eq == std::string::npos && name == "once") {
      *param = 1;  // bare "once" = fire on the first crossing
      return true;
    }
    if (!ParseUint(value, 0xFFFFFFFFull, param)) {
      if (error != nullptr) {
        *error = "'" + name + "' needs an integer in [1, 2^32), got '" +
                 value + "'";
      }
      return false;
    }
    return true;
  }
  if (name == "rate") {
    char* end = nullptr;
    double p = value.empty() ? -1.0 : std::strtod(value.c_str(), &end);
    if (value.empty() || end == nullptr || *end != '\0' || !(p > 0.0) ||
        p > 1.0) {
      if (error != nullptr) {
        *error = "'rate' needs a probability in (0, 1], got '" + value + "'";
      }
      return false;
    }
    // Threshold in 64-bit space; rate=1 must always fire.
    *param = p >= 1.0 ? ~uint64_t{0}
                      : static_cast<uint64_t>(
                            p * 18446744073709551616.0 /* 2^64 */);
    *mode = kRate;
    return true;
  }
  if (error != nullptr) {
    *error = "unknown trigger '" + name + "' (want nth=K, once[=K], rate=P)";
  }
  return false;
}

bool FaultRegistry::ArmOne(FaultSiteId id, Mode mode, uint64_t param) {
  Site& s = sites_[static_cast<uint32_t>(id)];
  uint32_t prev = s.mode.exchange(kOff, std::memory_order_relaxed);
  s.param.store(param, std::memory_order_relaxed);
  s.seq.store(0, std::memory_order_relaxed);
  s.mode.store(mode, std::memory_order_relaxed);
  if (prev == kOff && mode != kOff) {
    armed_sites_.fetch_add(1, std::memory_order_relaxed);
  } else if (prev != kOff && mode == kOff) {
    armed_sites_.fetch_sub(1, std::memory_order_relaxed);
  }
  return true;
}

bool FaultRegistry::Arm(const std::string& site, const std::string& spec,
                        std::string* error) {
  Mode mode = kOff;
  uint64_t param = 0;
  if (!ParseSpec(spec, &mode, &param, error)) return false;
  std::lock_guard<std::mutex> lk(arm_mu_);
  if (site == "*" || site == "all") {
    bool everything = site == "all";
    for (uint32_t i = 0; i < kNumSites; ++i) {
      if (everything || kSites[i].chaos_safe) {
        ArmOne(static_cast<FaultSiteId>(i), mode, param);
      }
    }
    return true;
  }
  FaultSiteId id = SiteByName(site);
  if (id == FaultSiteId::kNumSites) {
    if (error != nullptr) *error = "unknown fault site '" + site + "'";
    return false;
  }
  return ArmOne(id, mode, param);
}

int FaultRegistry::ArmFromString(const std::string& specs) {
  int armed = 0;
  size_t pos = 0;
  while (pos <= specs.size()) {
    size_t comma = specs.find(',', pos);
    if (comma == std::string::npos) comma = specs.size();
    std::string entry = specs.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      WarnSpec(entry, "missing ':' (want site:spec)");
      continue;
    }
    std::string error;
    if (Arm(entry.substr(0, colon), entry.substr(colon + 1), &error)) {
      ++armed;
    } else {
      WarnSpec(entry, error);
    }
  }
  return armed;
}

void FaultRegistry::Disarm(FaultSiteId id) {
  std::lock_guard<std::mutex> lk(arm_mu_);
  ArmOne(id, kOff, 0);
}

void FaultRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lk(arm_mu_);
  for (uint32_t i = 0; i < kNumSites; ++i) {
    ArmOne(static_cast<FaultSiteId>(i), kOff, 0);
  }
}

void FaultRegistry::ResetCounters() {
  std::lock_guard<std::mutex> lk(arm_mu_);
  for (Site& s : sites_) {
    s.seq.store(0, std::memory_order_relaxed);
    s.hits.store(0, std::memory_order_relaxed);
    s.injected.store(0, std::memory_order_relaxed);
  }
  injected_total_.store(0, std::memory_order_relaxed);
  retries_total_.store(0, std::memory_order_relaxed);
}

void FaultRegistry::SetSeed(uint64_t seed) {
  std::lock_guard<std::mutex> lk(arm_mu_);
  seed_.store(seed, std::memory_order_relaxed);
  for (Site& s : sites_) s.seq.store(0, std::memory_order_relaxed);
}

bool FaultRegistry::Fires(Site& s, FaultSiteId id) {
  uint32_t mode = s.mode.load(std::memory_order_relaxed);
  if (mode == kOff) return false;
  uint64_t seq = s.seq.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t param = s.param.load(std::memory_order_relaxed);
  switch (mode) {
    case kNth:
      return param != 0 && seq % param == 0;
    case kOnce:
      if (seq == param) {
        // One-shot: disarm so later crossings (and retries) survive. The
        // armed-site count is corrected lazily under the arm mutex; the
        // fast path only needs "nonzero while anything might fire".
        if (s.mode.exchange(kOff, std::memory_order_relaxed) != kOff) {
          armed_sites_.fetch_sub(1, std::memory_order_relaxed);
        }
        return true;
      }
      return false;
    case kRate:
      return Mix64(seed_.load(std::memory_order_relaxed) ^
                   (static_cast<uint64_t>(id) << 48) ^ seq) < param;
    default:
      return false;
  }
}

bool FaultRegistry::ShouldInject(FaultSiteId id) {
  if (!armed_anywhere()) return false;
  Site& s = sites_[static_cast<uint32_t>(id)];
  s.hits.fetch_add(1, std::memory_order_relaxed);
  if (!Fires(s, id)) return false;
  s.injected.fetch_add(1, std::memory_order_relaxed);
  injected_total_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FaultRegistry::MaybeInject(FaultSiteId id) {
  if (!ShouldInject(id)) return;
  const FaultSiteInfo& info = InfoOf(id);
  throw FaultInjectedError(id, info.name, info.transient);
}

uint64_t FaultRegistry::hits(FaultSiteId id) const {
  return sites_[static_cast<uint32_t>(id)].hits.load(
      std::memory_order_relaxed);
}

uint64_t FaultRegistry::injected(FaultSiteId id) const {
  return sites_[static_cast<uint32_t>(id)].injected.load(
      std::memory_order_relaxed);
}

uint64_t FaultRegistry::survived(FaultSiteId id) const {
  return hits(id) - injected(id);
}

std::vector<FaultSiteStats> FaultRegistry::Stats() const {
  std::vector<FaultSiteStats> out;
  out.reserve(kNumSites);
  for (uint32_t i = 0; i < kNumSites; ++i) {
    const Site& s = sites_[i];
    FaultSiteStats st;
    st.name = kSites[i].name;
    st.id = static_cast<FaultSiteId>(i);
    st.hits = s.hits.load(std::memory_order_relaxed);
    st.injected = s.injected.load(std::memory_order_relaxed);
    st.survived = st.hits - st.injected;
    uint32_t mode = s.mode.load(std::memory_order_relaxed);
    uint64_t param = s.param.load(std::memory_order_relaxed);
    switch (mode) {
      case kNth:
        st.spec = "nth=" + std::to_string(param);
        break;
      case kOnce:
        st.spec = "once=" + std::to_string(param);
        break;
      case kRate:
        st.spec = "rate~" + std::to_string(static_cast<double>(param) /
                                           18446744073709551616.0);
        break;
      default:
        break;
    }
    out.push_back(std::move(st));
  }
  return out;
}

void FaultBackoffSleep(int attempt, const RetryPolicy& policy,
                       FaultSiteId site) {
  // Exponential base doubling per attempt, capped; jitter in [0.5, 1.0) of
  // the step, deterministic per (site, attempt) so recovery latency is
  // reproducible.
  uint64_t step = policy.base_delay_us;
  for (int i = 1; i < attempt && step < policy.max_delay_us; ++i) step *= 2;
  if (step > policy.max_delay_us) step = policy.max_delay_us;
  Rng rng((static_cast<uint64_t>(site) << 8) ^
          static_cast<uint64_t>(attempt) ^ 0xFA017EC7ull);
  uint64_t delay_us = step / 2 + rng.Uniform(step / 2 + 1);
  std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
}

}  // namespace lbr
