// Timing statistics, child processes and file helpers of perfbench.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

// Nearest-rank percentile `p` (0..100).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

}  // namespace

Tail TailOf(std::vector<double> values) {
  const double n = static_cast<double>(values.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    const double beyond = n - std::ceil(p / 100.0 * n);
    if (beyond >= 10) return {p, Percentile(values, p)};
  }
  return {};
}

std::string CoverText(const depminer::FdSet& fds,
                      const depminer::Schema& schema) {
  std::string text;
  for (const depminer::FunctionalDependency& fd : fds.fds()) {
    text += fd.ToString(schema);
    text += '\n';
  }
  return text;
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

uint64_t Digest(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

uint64_t DirectoryBytes(const std::string& path) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

namespace {

// Children that may still be running, for the abort handler. Slots are
// claimed and released with atomics so the handler reads them safely.
constexpr int kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void OnAbort(int sig) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
  ::_exit(128 + sig);
}

int ExitCodeOf(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

// Runs in the forked child: dies with the parent, then execs.
[[noreturn]] void ExecChild(const std::vector<std::string>& argv,
                            pid_t parent, int death_signal) {
  ::prctl(PR_SET_PDEATHSIG, death_signal);
  if (::getppid() != parent) ::_exit(127);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  ::execv(args[0], args.data());
  ::_exit(127);
}

int OpenLog(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  return fd;
}

}  // namespace

void InstallAbortHandlers() {
  for (const int sig : {SIGINT, SIGTERM, SIGHUP}) ::signal(sig, OnAbort);
}

ChildResult RunChild(const std::vector<std::string>& argv,
                     const std::string& stderr_path) {
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  const int err_fd = OpenLog(stderr_path);
  const pid_t parent = ::getpid();
  ChildResult result;
  const double start = NowSeconds();
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {out_pipe[0], out_pipe[1], err_fd}) ::close(fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    ExecChild(argv, parent, SIGKILL);
  }
  Register(pid);
  ::close(out_pipe[1]);
  ::close(err_fd);
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(out_pipe[0], buffer, sizeof(buffer));
    if (n > 0) {
      result.out.append(buffer, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(out_pipe[0]);
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.wall_s = NowSeconds() - start;
  Unregister(pid);
  result.exit_code = ExitCodeOf(status);
  result.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

pid_t SpawnDaemon(const std::vector<std::string>& argv,
                  const std::string& log_path) {
  const int log_fd = OpenLog(log_path);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ExecChild(argv, parent, SIGTERM);
  }
  Register(pid);
  ::close(log_fd);
  return pid;
}

int StopDaemon(pid_t pid) {
  ::kill(pid, SIGTERM);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Unregister(pid);
  return ExitCodeOf(status);
}

void Count(RunReport* report, bool ok, const std::string& what) {
  ++report->attempted;
  if (!ok) {
    ++report->failed;
    std::fprintf(stderr, "perfbench: failed op: %s\n", what.c_str());
  }
}

}  // namespace perfbench
