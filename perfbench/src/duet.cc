#include "duet.h"

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>

#include "harness.h"
#include "ref_engine.h"

namespace perfbench {

namespace {

pid_t g_child = -1;
int g_to_child = -1;    // parent's write end
int g_from_child = -1;  // parent's read end

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// False on end of file or error.
bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

/// A request's header: the CPU to run on (-1: any), then the round size,
/// or kSetupRequest for a set-up repeat.
constexpr int32_t kSetupRequest = -1;

/// The child: serves requests until the parent closes its end. Leaves
/// only through _exit, so nothing the parent buffered or registered runs
/// here.
[[noreturn]] void Serve(int in, int out, const DuetOptions& opt) {
  try {
    cpu_set_t all;
    CPU_ZERO(&all);
    ::sched_getaffinity(0, sizeof(all), &all);
    RefEngine ref(opt.nt_paths);
    std::vector<std::string> texts;
    for (const auto& q : opt.queries) texts.push_back(q.second);
    if (opt.batch_runners == 0) {
      for (const auto& [db, text] : opt.queries) ref.Run(db, text);
    }
    const char ready = 1;
    if (!WriteAll(out, &ready, 1)) ::_exit(0);
    bool serving = false;
    std::vector<uint32_t> round;
    std::vector<std::string> batch;
    for (;;) {
      int32_t header[2];
      if (!ReadAll(in, header, sizeof(header))) ::_exit(0);
      if (header[1] != kSetupRequest) {
        round.resize(static_cast<size_t>(header[1]));
        if (!ReadAll(in, round.data(), round.size() * sizeof(uint32_t))) {
          ::_exit(0);
        }
      }
      cpu_set_t set = all;
      if (header[0] >= 0) {
        CPU_ZERO(&set);
        CPU_SET(header[0], &set);
      }
      ::sched_setaffinity(0, sizeof(set), &set);
      if (header[1] != kSetupRequest && opt.batch_runners > 0 && !serving) {
        // Deployed at the first round, after the set-up repeats; the
        // runners take the CPU set just restored.
        serving = true;
        ref.ServeSnapshot(opt.snapshot_path, texts, opt.budget_divisor,
                          opt.batch_runners);
        for (size_t i = 0; i < texts.size(); i += round.size()) {
          ref.RunBatch(std::vector<std::string>(
              texts.begin() + i,
              texts.begin() + std::min(texts.size(), i + round.size())));
        }
      }
      const double c0 = CpuMs();
      auto t0 = std::chrono::steady_clock::now();
      if (header[1] == kSetupRequest) {
        ref.Rebuild(opt.snapshot_path);
      } else if (opt.batch_runners > 0) {
        batch.clear();
        for (uint32_t i : round) batch.push_back(texts.at(i));
        ref.RunBatch(batch);
      } else {
        for (uint32_t i : round) {
          ref.Run(opt.queries.at(i).first, opt.queries.at(i).second);
        }
      }
      RefTime time;
      time.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      time.cpu_ms = CpuMs() - c0;
      if (!WriteAll(out, &time, sizeof(time))) ::_exit(0);
    }
  } catch (...) {
    ::_exit(4);
  }
}

RefTime Request(const int32_t header[2], const std::vector<uint32_t>& round) {
  RefTime time;
  if (!WriteAll(g_to_child, header, 2 * sizeof(int32_t)) ||
      !WriteAll(g_to_child, round.data(), round.size() * sizeof(uint32_t)) ||
      !ReadAll(g_from_child, &time, sizeof(time))) {
    Fail("the reference engine stopped answering");
  }
  return time;
}

}  // namespace

Duet::Duet(const DuetOptions& options) {
  if (g_child > 0) Fail("only one reference engine per run");
  int down[2], up[2];
  if (::pipe(down) != 0 || ::pipe(up) != 0) Fail("pipe failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) Fail("fork failed");
  if (pid == 0) {
    // Die with the parent, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(0);
    ::close(down[1]);
    ::close(up[0]);
    Serve(down[0], up[1], options);
  }
  ::close(down[0]);
  ::close(up[1]);
  // A child that died shows as a failed write, not as a SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  g_child = pid;
  g_to_child = down[1];
  g_from_child = up[0];
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit(&Duet::Stop);
  }
  char ready = 0;
  if (!ReadAll(g_from_child, &ready, 1)) {
    Fail("the reference engine failed to build its databases");
  }
}

Duet::~Duet() { Stop(); }

RefTime Duet::RunRound(int cpu, const std::vector<uint32_t>& round) {
  const int32_t header[2] = {cpu, static_cast<int32_t>(round.size())};
  return Request(header, round);
}

double Duet::Setup(int cpu) {
  const int32_t header[2] = {cpu, kSetupRequest};
  return Request(header, {}).wall_ms / 1e3;
}

void Duet::Stop() {
  if (g_child <= 0) return;
  ::close(g_to_child);  // the child reads end of file and leaves
  ::close(g_from_child);
  int status = 0;
  while (::waitpid(g_child, &status, 0) < 0 && errno == EINTR) {
  }
  g_child = -1;
}

}  // namespace perfbench
