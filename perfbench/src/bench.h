// Shared declarations of the end-to-end benchmark binary (see README.md).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fd/fd_set.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Stretches every input's tuple count (1 = the documented workloads;
  /// the self-test uses a tiny value).
  double scale = 1.0;
  /// Drops one FD from the reference cover, so every op must fail
  /// verification (the self-test's check that verification bites).
  bool doctor_reference = false;
  std::string fdtool;    ///< absolute path of the fdtool binary
  std::string self;      ///< absolute path of this binary
  std::string out_dir;   ///< where result and span files are kept
};

/// One generated input and its verified reference cover.
struct Input {
  std::string spec;  ///< PaperScaleCorpus point name
  depminer::Relation relation;
  std::string csv;        ///< the relation as CSV text
  std::string reference;  ///< cover text: one `fd.ToString` line per FD
  size_t reference_fds = 0;
};

/// Builds the input of `workload` from the seed and mines its reference
/// cover at one lane through the library.
Input MakeInput(const Options& options);

/// A cover as fdtool prints it and the daemon sends it: one
/// `FunctionalDependency::ToString` line per FD.
std::string CoverText(const depminer::FdSet& fds,
                      const depminer::Schema& schema);

/// FNV-1a of a string: how traced children report the cover they built.
uint64_t Digest(const std::string& text);

/// A number for the JSON files, with all its digits.
std::string JsonNumber(double value);

// --- Timing samples -------------------------------------------------------

double Median(std::vector<double> values);

/// The highest of {50, 90, 95, 99, 99.9} with at least ten samples beyond
/// it, and the value at that percentile; {0, 0} for under 20 samples
/// where no such percentile exists.
struct Tail {
  double percentile = 0;
  double value = 0;
};
Tail TailOf(std::vector<double> values);

// --- Processes ------------------------------------------------------------

struct ChildResult {
  int exit_code = -1;  ///< exit status, or 128 + signal
  double wall_s = 0;   ///< fork to reap
  double maxrss_mb = 0;
  std::string out;  ///< everything the child wrote to stdout
};

/// Runs `argv` to completion with stdout captured and stderr appended to
/// `stderr_path`.
ChildResult RunChild(const std::vector<std::string>& argv,
                     const std::string& stderr_path);

/// Starts a long-running child (the daemon) with stdout and stderr
/// appended to `log_path`. It receives SIGTERM if this process dies.
pid_t SpawnDaemon(const std::vector<std::string>& argv,
                  const std::string& log_path);

/// Sends SIGTERM and waits; returns the exit status (128 + signal when
/// killed by one).
int StopDaemon(pid_t pid);

/// Kills every child still registered; installed for SIGINT/SIGTERM so an
/// aborted benchmark leaves no daemon behind.
void InstallAbortHandlers();

/// VmHWM of a live process, in MB (2^20 bytes).
double PeakRssMb(pid_t pid);

/// Total size of the regular files below `path`.
uint64_t DirectoryBytes(const std::string& path);

double NowSeconds();  ///< steady clock
int64_t NowNanos();   ///< steady clock, shared by all processes of a host

void WriteFile(const std::string& path, const std::string& content);
std::string ReadFile(const std::string& path);

// --- Results --------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: gated metrics go to the result line, everything
/// (including `extra`) to the human-readable report and the result file.
struct RunReport {
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> extra;
  std::map<std::string, std::string> notes;
  /// Per-op samples behind the medians, kept in the result file.
  std::map<std::string, std::vector<double>> samples;
  size_t attempted = 0;
  size_t failed = 0;
};

/// Counts one verified op.
void Count(RunReport* report, bool ok, const std::string& what);

// --- Workloads ------------------------------------------------------------

void RunCliWorkload(const Options& options, const Input& input,
                    RunReport* report);
void RunServeWorkload(const Options& options, const Input& input,
                      RunReport* report);

/// The traced run: e2e ops for the baseline, then one fresh process per
/// traced op; fills the per-layer metrics and writes the span file.
void RunTraced(const Options& options, const Input& input,
               RunReport* report);

/// Entry point of a traced child process (`perfbench --traced-op ...`).
int TracedOpMain(int argc, char** argv);

}  // namespace perfbench
