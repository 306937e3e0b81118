// perfbench: the end-to-end benchmark binary (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --fdtool PATH --out-dir DIR [--scale X] [--doctor-reference 1]
//
// Prints a human-readable report, then one JSON result line; exits 0 only
// when every op it attempted succeeded with the reference cover.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"cold_mine_100k", "dense_cover_128",
                                  "serve_mixed"};

std::string Json(const std::string& s) { return "\"" + s + "\""; }

Options ParseOptions(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  Options options;
  options.workload = args["--workload"];
  bool known = false;
  for (const char* w : kWorkloads) known = known || options.workload == w;
  if (!known) {
    throw std::runtime_error("unknown --workload '" + options.workload + "'");
  }
  options.seed = std::stoull(args.count("--seed") ? args["--seed"] : "1");
  options.seconds =
      std::stod(args.count("--seconds") ? args["--seconds"] : "10");
  options.trace = args["--trace"] == "1";
  options.scale = std::stod(args.count("--scale") ? args["--scale"] : "1");
  options.doctor_reference = args["--doctor-reference"] == "1";
  options.fdtool = fs::absolute(args["--fdtool"]).string();
  options.out_dir = fs::absolute(args["--out-dir"]).string();
  options.self = fs::read_symlink("/proc/self/exe").string();
  if (!fs::exists(options.fdtool)) {
    throw std::runtime_error("no fdtool at " + options.fdtool);
  }
  return options;
}

// Removes work dirs left by runs whose process is gone.
void SweepStaleWorkDirs(const fs::path& base) {
  if (!fs::exists(base)) return;
  for (const auto& entry : fs::directory_iterator(base)) {
    const pid_t pid =
        static_cast<pid_t>(std::atol(entry.path().filename().c_str()));
    if (pid <= 0 || ::kill(pid, 0) != 0) fs::remove_all(entry.path());
  }
}

void PrintReport(const Options& options, const Input& input,
                 const RunReport& report) {
  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  std::printf("input %s: %zu tuples x %zu attributes, %zu CSV bytes, %zu FDs "
              "(%zu cover bytes)\n",
              input.spec.c_str(), input.relation.num_tuples(),
              input.relation.num_attributes(), input.csv.size(),
              input.reference_fds, input.reference.size());
  for (const auto* group : {&report.metrics, &report.extra}) {
    for (const auto& [name, m] : *group) {
      std::printf("%-32s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  const double error_rate =
      static_cast<double>(report.failed) /
      static_cast<double>(std::max<size_t>(report.attempted, 1));
  std::printf("%-32s %16.6f ratio (%zu of %zu ops failed)\n", "error_rate",
              error_rate, report.failed, report.attempted);
  for (const auto& [name, value] : report.notes) {
    std::printf("# %s = %s\n", name.c_str(), value.c_str());
  }
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string json = "{";
  for (const auto& [name, m] : metrics) {
    if (json.size() > 1) json += ", ";
    json += Json(name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + Json(m.unit) + "}";
  }
  return json + "}";
}

// Keeps the whole report beside the span file.
void WriteResultFile(const Options& options, const Input& input,
                     const RunReport& report) {
  std::string notes = "{";
  for (const auto& [name, value] : report.notes) {
    if (notes.size() > 1) notes += ", ";
    notes += Json(name) + ": " + Json(value);
  }
  notes += "}";
  std::string samples = "{";
  for (const auto& [name, values] : report.samples) {
    if (samples.size() > 1) samples += ", ";
    samples += Json(name) + ": [";
    for (size_t i = 0; i < values.size(); ++i) {
      samples += (i ? ", " : "") + JsonNumber(values[i]);
    }
    samples += "]";
  }
  samples += "}";
  const std::string json =
      "{\"workload\": " + Json(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"input\": {\"spec\": " + Json(input.spec) +
      ", \"tuples\": " + std::to_string(input.relation.num_tuples()) +
      ", \"attributes\": " + std::to_string(input.relation.num_attributes()) +
      ", \"csv_bytes\": " + std::to_string(input.csv.size()) +
      ", \"fds\": " + std::to_string(input.reference_fds) +
      ", \"cover_bytes\": " + std::to_string(input.reference.size()) + "}" +
      ", \"attempted\": " + std::to_string(report.attempted) +
      ", \"failed\": " + std::to_string(report.failed) +
      ", \"metrics\": " + MetricsJson(report.metrics) +
      ", \"extra\": " + MetricsJson(report.extra) + ", \"notes\": " + notes +
      ", \"samples\": " + samples + "}\n";
  WriteFile(options.out_dir + "/" + options.workload + "-seed" +
                std::to_string(options.seed) + "-trace" +
                (options.trace ? "1" : "0") + ".json",
            json);
}

int Run(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  const fs::path work = fs::path(options.out_dir) / "work";
  SweepStaleWorkDirs(work);
  const fs::path dir = work / std::to_string(::getpid());
  fs::create_directories(dir);
  // Relative paths from here on keep socket paths short.
  fs::current_path(dir);
  RunReport report;
  const Input input = MakeInput(options);
  if (options.trace) {
    RunTraced(options, input, &report);
  } else if (options.workload == "serve_mixed") {
    RunServeWorkload(options, input, &report);
  } else {
    RunCliWorkload(options, input, &report);
  }
  fs::current_path(options.out_dir);
  fs::remove_all(dir);
  PrintReport(options, input, report);
  WriteResultFile(options, input, report);
  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              MetricsJson(report.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "--traced-op") {
      return perfbench::TracedOpMain(argc, argv);
    }
    perfbench::InstallAbortHandlers();
    return perfbench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
