// Inputs, reference covers and the end-to-end workloads: fresh `fdtool
// mine` processes, and a live `fdtool serve` driven over its socket.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/dep_miner.h"
#include "datagen/synthetic.h"
#include "relation/csv.h"
#include "serve_leg.h"
#include "server/client.h"

namespace perfbench {

using depminer::CorpusSpec;
using depminer::Response;
using depminer::Result;
using depminer::ServerClient;

namespace {

constexpr int kMiningLanes = 4;


// The grid point of `workload`: the 100k x 15 tuple-sweep point, or the
// wide low-domain point at half scale (128 tuples at scale 1).
CorpusSpec SpecFor(const Options& options) {
  const bool dense = options.workload == "dense_cover_128";
  const double scale = dense ? 0.5 * options.scale : options.scale;
  const size_t want_tuples = std::max<size_t>(
      64, static_cast<size_t>((dense ? 256.0 : 100000.0) * scale));
  const std::string prefix = dense ? "dense_attrs45_" : "tuples_";
  for (CorpusSpec& spec : depminer::PaperScaleCorpus(scale, options.seed)) {
    if (spec.name.rfind(prefix, 0) == 0 &&
        spec.config.num_tuples == want_tuples) {
      return spec;
    }
  }
  throw std::runtime_error("no corpus point for " + options.workload);
}

}  // namespace

Input MakeInput(const Options& options) {
  const CorpusSpec spec = SpecFor(options);
  Result<depminer::Relation> relation =
      depminer::GenerateSynthetic(spec.config);
  if (!relation.ok()) throw std::runtime_error(relation.status().ToString());
  Input input;
  input.spec = spec.name;
  input.relation = std::move(relation).value();
  input.csv = depminer::CsvToString(input.relation);
  depminer::DepMinerOptions mine;
  mine.build_armstrong = false;
  mine.num_threads = 1;
  Result<depminer::DepMinerResult> mined =
      depminer::MineDependencies(input.relation, mine);
  if (!mined.ok() || !mined.value().complete) {
    throw std::runtime_error("reference mine failed");
  }
  input.reference = CoverText(mined.value().fds, input.relation.schema());
  input.reference_fds = mined.value().fds.size();
  if (options.doctor_reference) {
    // Drop the last FD: every correct op now mismatches.
    const size_t cut = input.reference.rfind('\n', input.reference.size() - 2);
    input.reference.resize(cut == std::string::npos ? 0 : cut + 1);
  }
  return input;
}

// --- Cold CLI ---------------------------------------------------------------

namespace {

// One verified `fdtool mine` process.
ChildResult MineOnce(const Options& options, const Input& input,
                     RunReport* report) {
  ChildResult child =
      RunChild({options.fdtool, "mine", "input.csv",
                "--threads=" + std::to_string(kMiningLanes)},
               "fdtool.err");
  const bool same = child.out == input.reference;
  Count(report, child.exit_code == 0 && same,
        "fdtool mine exit=" + std::to_string(child.exit_code) +
            (same ? "" : " (cover differs)"));
  return child;
}

// Writes the input and runs one untimed warm-up process.
double CliSetup(const Options& options, const Input& input,
                RunReport* report) {
  const double start = NowSeconds();
  WriteFile("input.csv", input.csv);
  MineOnce(options, input, report);
  return NowSeconds() - start;
}

}  // namespace

std::vector<double> CliMineLatencies(const Options& options,
                                     const Input& input, double seconds,
                                     size_t min_ops, RunReport* report,
                                     std::vector<double>* rss_mb,
                                     double* wall_s) {
  std::vector<double> latencies;
  const double start = NowSeconds();
  while (latencies.size() < min_ops || NowSeconds() - start < seconds) {
    const ChildResult op = MineOnce(options, input, report);
    latencies.push_back(op.wall_s);
    rss_mb->push_back(op.maxrss_mb);
  }
  *wall_s = NowSeconds() - start;
  return latencies;
}

void RunCliWorkload(const Options& options, const Input& input,
                    RunReport* report) {
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    setups.push_back(CliSetup(options, input, report));
  }
  std::vector<double> rss;
  double wall = 0;
  const std::vector<double> cold = CliMineLatencies(
      options, input, options.seconds, 5, report, &rss, &wall);
  report->metrics["setup_s"] = {Median(setups), "s"};
  report->metrics["mine_cold_s.p50"] = {Median(cold), "s"};
  report->extra["peak_rss_mb"] = {Median(rss), "MB"};
  report->extra["requests_per_s"] = {
      static_cast<double>(cold.size()) / wall, "1/s"};
  report->samples["setup_s"] = setups;
  report->samples["mine_cold_s"] = cold;
  report->samples["peak_rss_mb"] = rss;
}

// --- Serve ------------------------------------------------------------------

Daemon::Daemon(const Options& options, const std::string& name,
               size_t connections, RunReport* report)
    : report_(report),
      catalog_dir_(name + "-catalog"),
      socket_(name + ".sock") {
  std::filesystem::create_directories(catalog_dir_);
  pid_ = SpawnDaemon({options.fdtool, "serve", "--catalog-dir=" + catalog_dir_,
                      "--socket=" + socket_,
                      "--threads=" + std::to_string(kMiningLanes)},
                     name + ".log");
  try {
    // Up when the first PING answers OK.
    const double deadline = NowSeconds() + 60;
    while (clients_.empty()) {
      Result<ServerClient> client = ServerClient::Connect(socket_);
      if (client.ok()) {
        Result<Response> pong = client.value().Call("PING");
        if (pong.ok() && pong.value().ok) {
          clients_.push_back(std::move(client).value());
          break;
        }
      }
      if (NowSeconds() > deadline) throw std::runtime_error("daemon not up");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    while (clients_.size() < connections) {
      Result<ServerClient> client = ServerClient::Connect(socket_);
      if (!client.ok()) throw std::runtime_error(client.status().ToString());
      clients_.push_back(std::move(client).value());
    }
  } catch (...) {
    Stop();
    throw;
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) Stop();
}

int Daemon::Stop() {
  clients_.clear();
  const int code = StopDaemon(pid_);
  pid_ = -1;
  Count(report_, code == 0, "daemon drain exit=" + std::to_string(code));
  return code;
}

namespace {

bool CheckMine(const Result<Response>& reply, const Input& input,
               bool* cached) {
  if (!reply.ok() || !reply.value().ok) return false;
  const auto& params = reply.value().params;
  const auto it = params.find("cached");
  const auto complete = params.find("complete");
  *cached = it != params.end() && it->second == "1";
  return complete != params.end() && complete->second == "1" &&
         reply.value().body == input.reference;
}

// One version of dataset `conn`: the base relation plus one row of
// values unique to (seed, connection, round). The row only adds the
// empty agree set, which the base already has, so the cover is unchanged.
std::string Version(const Options& options, const Input& input, size_t conn,
                    size_t round) {
  std::string body = input.csv;
  if (!body.empty() && body.back() != '\n') body += '\n';
  for (size_t a = 0; a < input.relation.num_attributes(); ++a) {
    if (a > 0) body += ',';
    char cell[96];
    std::snprintf(cell, sizeof(cell), "u%llu_%zu_%zu_%zu",
                  static_cast<unsigned long long>(options.seed), conn, round,
                  a);
    body += cell;
  }
  body += '\n';
  return body;
}

struct Lane {
  ServeSamples samples;
  RunReport tally;
  std::string last_body;
};

// Lock-steps the connections so every run overlaps the same phases: all
// start a round together, and connection c > 0 sends its PUT once
// connection 0's PUT of the round is answered, so that PUT's exclusive
// catalog lock lands while connection 0 mines or hits.
class RoundGate {
 public:
  explicit RoundGate(size_t connections) : finished_(connections, 0) {}

  void Start(size_t conn, size_t round) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return aborted_ ||
             (*std::min_element(finished_.begin(), finished_.end()) >= round &&
              (conn == 0 || first_puts_ > round));
    });
  }
  void PutAnswered(size_t conn) {
    if (conn == 0) Update([&] { ++first_puts_; });
  }
  void Finish(size_t conn) { Update([&] { ++finished_[conn]; }); }
  void Abort() { Update([&] { aborted_ = true; }); }

 private:
  template <typename F>
  void Update(F&& change) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      change();
    }
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<size_t> finished_;  // rounds completed, per connection
  size_t first_puts_ = 0;         // connection 0's answered PUTs
  bool aborted_ = false;
};

void RunConnection(const Options& options, const Input& input,
                   const ServeConfig& config, size_t conn, ServerClient* client,
                   RoundGate* gate, Lane* lane) {
  const std::string name = std::string("d").append(std::to_string(conn));
  try {
    for (size_t round = 0; round < config.rounds; ++round) {
      lane->last_body = Version(options, input, conn, round);
      gate->Start(conn, round);
      double start = NowSeconds();
      Result<Response> put = client->Call("PUT " + name, lane->last_body);
      lane->samples.put_s.push_back(NowSeconds() - start);
      gate->PutAnswered(conn);
      Count(&lane->tally, put.ok() && put.value().ok, "PUT " + name);
      // One miss, then hits, then a warm mine that bypasses the cache.
      const size_t mines = 2 + config.hits;
      for (size_t i = 0; i < mines; ++i) {
        const bool warm = i + 1 == mines;
        start = NowSeconds();
        Result<Response> reply =
            client->Call("MINE " + name + (warm ? " nocache=1" : ""));
        const double took = NowSeconds() - start;
        bool cached = false;
        const bool ok = CheckMine(reply, input, &cached);
        Count(&lane->tally, ok, "MINE " + name + " #" + std::to_string(i));
        if (warm) {
          lane->samples.warm_s.push_back(took);
        } else {
          ++lane->samples.cacheable_mines;
          if (cached) {
            ++lane->samples.hits;
            lane->samples.hit_ms.push_back(took * 1e3);
          } else {
            lane->samples.cold_s.push_back(took);
          }
        }
      }
      lane->samples.requests += 1 + mines;
      gate->Finish(conn);
    }
  } catch (const std::exception& e) {
    Count(&lane->tally, false, std::string("connection: ") + e.what());
    gate->Abort();
  }
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

ServeSamples ServeRounds(const Options& options, const Input& input,
                         const ServeConfig& config, Daemon* daemon,
                         RunReport* report) {
  std::vector<Lane> lanes(config.connections);
  RoundGate gate(config.connections);
  const double start = NowSeconds();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < config.connections; ++c) {
    threads.emplace_back(RunConnection, std::cref(options), std::cref(input),
                         std::cref(config), c, &daemon->client(c), &gate,
                         &lanes[c]);
  }
  for (std::thread& t : threads) t.join();
  ServeSamples all;
  all.wall_s = NowSeconds() - start;
  for (const Lane& lane : lanes) {
    Append(&all.put_s, lane.samples.put_s);
    Append(&all.cold_s, lane.samples.cold_s);
    Append(&all.warm_s, lane.samples.warm_s);
    Append(&all.hit_ms, lane.samples.hit_ms);
    all.requests += lane.samples.requests;
    all.hits += lane.samples.hits;
    all.cacheable_mines += lane.samples.cacheable_mines;
    all.live_csv_bytes += lane.last_body.size();
    report->attempted += lane.tally.attempted;
    report->failed += lane.tally.failed;
  }
  for (int i = 0; i < config.pings; ++i) {
    const double t = NowSeconds();
    Result<Response> pong = daemon->client(0).Call("PING");
    all.ping_ms.push_back((NowSeconds() - t) * 1e3);
    Count(report, pong.ok() && pong.value().ok, "PING");
  }
  all.peak_rss_mb = PeakRssMb(daemon->pid());
  all.stored_bytes = DirectoryBytes(daemon->catalog_dir());
  all.cache_bytes = DirectoryBytes(daemon->catalog_dir() + "/cache");
  return all;
}

// Daemon spawn until the first PING answers OK, plus the initial PUTs.
std::unique_ptr<Daemon> ServeSetup(const Options& options, const Input& input,
                                   size_t connections, const std::string& name,
                                   RunReport* report, double* setup_s) {
  const double start = NowSeconds();
  auto daemon = std::make_unique<Daemon>(options, name, connections, report);
  for (size_t c = 0; c < connections; ++c) {
    Result<Response> put =
        daemon->client(c).Call("PUT d" + std::to_string(c), input.csv);
    Count(report, put.ok() && put.value().ok, "initial PUT");
  }
  *setup_s = NowSeconds() - start;
  return daemon;
}

void RunServeWorkload(const Options& options, const Input& input,
                      RunReport* report) {
  ServeConfig config;
  config.connections = 2;
  config.rounds = static_cast<size_t>(
      std::max<long>(1, std::lround(options.seconds / 5)));
  config.hits = 25;
  std::vector<double> setups(3);
  for (int i = 0; i < 2; ++i) {
    ServeSetup(options, input, config.connections, "setup" + std::to_string(i),
               report, &setups[i])
        ->Stop();
  }
  std::unique_ptr<Daemon> daemon = ServeSetup(
      options, input, config.connections, "serve", report, &setups[2]);
  const ServeSamples s =
      ServeRounds(options, input, config, daemon.get(), report);
  daemon->Stop();

  report->metrics["setup_s"] = {Median(setups), "s"};
  report->metrics["mine_cold_s.p50"] = {Median(s.cold_s), "s"};
  report->extra["peak_rss_mb"] = {s.peak_rss_mb, "MB"};
  report->extra["requests_per_s"] = {
      static_cast<double>(s.requests) / s.wall_s, "1/s"};
  report->extra["mine_warm_s.p50"] = {Median(s.warm_s), "s"};
  report->extra["mine_hit_ms.p50"] = {Median(s.hit_ms), "ms"};
  const Tail tail = TailOf(s.hit_ms);
  report->extra["mine_hit_ms.tail"] = {tail.value, "ms"};
  report->extra["put_s.p50"] = {Median(s.put_s), "s"};
  report->extra["stored_bytes_per_input_byte"] = {
      static_cast<double>(s.stored_bytes) /
          static_cast<double>(s.live_csv_bytes),
      "ratio"};
  report->notes["rounds_per_connection"] = std::to_string(config.rounds);
  report->notes["mine_hit_ms.tail.percentile"] =
      std::to_string(tail.percentile);
  report->notes["mine_hit_ms.samples"] = std::to_string(s.hit_ms.size());
  report->notes["mine_cold_s.samples"] = std::to_string(s.cold_s.size());
  report->notes["requests"] = std::to_string(s.requests);
  report->samples["setup_s"] = setups;
  report->samples["mine_cold_s"] = s.cold_s;
  report->samples["mine_warm_s"] = s.warm_s;
  report->samples["mine_hit_ms"] = s.hit_ms;
  report->samples["put_s"] = s.put_s;
}

}  // namespace perfbench
