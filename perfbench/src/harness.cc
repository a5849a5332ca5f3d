#include "harness.h"

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

namespace perfbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--work-dir D] [--trace-out F] [--tiny] "
               "[--break-oracle] [--digest]\n";
  std::exit(2);
}

// Prints a double with every digit it has, so no two distinct
// measurements print alike.
std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

Options ParseOptions(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        std::string v = value();
        if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (a == "--work-dir") {
        o.work_dir = value();
      } else if (a == "--trace-out") {
        o.trace_out = value();
      } else if (a == "--tiny") {
        o.tiny = true;
      } else if (a == "--break-oracle") {
        o.break_oracle = true;
      } else if (a == "--digest") {
        o.digest = true;
      } else {
        Usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      Usage("malformed value for " + a);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

void Fail(const std::string& msg) {
  std::cout.flush();
  std::cerr << "perfbench: FAILED: " << msg << "\n";
  std::exit(3);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashBytes(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t TableHash(const lbr::ResultTable& table) {
  std::vector<size_t> order(table.var_names.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&table](size_t a, size_t b) {
    return table.var_names[a] < table.var_names[b];
  });
  uint64_t header = 1469598103934665603ull;
  for (size_t c : order) header = HashBytes(table.var_names[c] + '\0', header);

  uint64_t sum = Mix(header ^ table.rows.size());
  for (const auto& row : table.rows) {
    uint64_t h = header;
    for (size_t c : order) {
      const std::optional<lbr::Term>& cell = row[c];
      if (!cell.has_value()) {
        h = Mix(h ^ 0x6e756c6cull);  // "null"
        continue;
      }
      h = HashBytes(cell->value, Mix(h ^ static_cast<uint64_t>(cell->kind)));
    }
    sum += Mix(h);
  }
  return sum;
}

uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return HashBytes(buf.str());
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(SteadyNs()) {
  if (enabled_) spans_.reserve(1 << 16);
}

double Tracer::NowUs() const { return (SteadyNs() - origin_ns_) / 1e3; }

uint64_t Tracer::Add(const char* name, uint64_t parent, uint64_t query,
                     double start_us, double dur_us) {
  if (!enabled_) return 0;
  uint64_t id = spans_.size() + dropped_ + 1;
  if (spans_.size() < kMaxSpans) {
    spans_.push_back({name, id, parent, query, start_us, dur_us});
  } else {
    ++dropped_;
  }
  return id;
}

void Tracer::Write(const std::string& path,
                   const std::string& context_json) const {
  if (!enabled_ || path.empty()) return;
  std::ofstream out(path);
  if (!out) Fail("cannot write trace " + path);
  out << "{\"otherData\": {\"context\": " << context_json
      << ", \"spans_dropped\": " << dropped_ << "},\n\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << Num(s.start_us)
        << ",\"dur\":" << Num(s.dur_us) << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"query\":" << s.query << "}}";
  }
  out << "\n]}\n";
}

void ResetPeakRss() {
  ::malloc_trim(0);
  // "5" resets the peak-RSS watermark (Linux >= 4.0). When the kernel
  // refuses, VmHWM keeps the process-lifetime peak; the metric then also
  // covers set-up, which only overstates it.
  int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd >= 0) {
    if (::write(fd, "5", 1) != 1) {
      std::cerr << "perfbench: peak-RSS reset refused; peak_rss_mb "
                   "includes set-up\n";
    }
    ::close(fd);
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double CpuMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

namespace {

bool PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) PinTo(cpus_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  if (!PinTo({cpus_[next_]})) {
    std::cerr << "perfbench: cannot pin to a CPU; the client stays "
                 "wherever the scheduler puts it\n";
    cpus_.clear();
    current_ = -1;
    return;
  }
  current_ = cpus_[next_];
  next_ = (next_ + 1) % cpus_.size();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Context(const std::string& key, const std::string& json_value) {
  context_.emplace_back(key, json_value);
}

std::string Report::ContextJson() const {
  std::string out = "{";
  for (size_t i = 0; i < context_.size(); ++i) {
    out += (i ? ", " : "") + JsonString(context_[i].first) + ": " +
           context_[i].second;
  }
  return out + "}";
}

void Report::Print(uint64_t attempted, uint64_t failed) const {
  for (const std::string& n : notes_) std::cout << n << "\n";
  std::cout << "context " << ContextJson() << "\n";
  for (const Metric& m : metrics_) {
    std::cout << "metric " << m.name << " " << Num(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "{\"correct\": true, \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::cout << (i ? ", " : "") << JsonString(m.name)
              << ": {\"value\": " << Num(m.value)
              << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
