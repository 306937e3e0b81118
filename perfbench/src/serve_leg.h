// The live-daemon leg shared by the serve workload and the traced runs.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "server/client.h"

namespace perfbench {

/// A `fdtool serve` on a fresh catalog dir and socket under the run's
/// work dir, with one open client per connection. Destruction (or
/// Stop) sends SIGTERM and counts a non-zero drain exit as a failed op.
class Daemon {
 public:
  Daemon(const Options& options, const std::string& name, size_t connections,
         RunReport* report);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  depminer::ServerClient& client(size_t i) { return clients_[i]; }
  pid_t pid() const { return pid_; }
  const std::string& catalog_dir() const { return catalog_dir_; }
  /// Drains the daemon; returns its exit status.
  int Stop();

 private:
  RunReport* report_;
  std::string catalog_dir_;
  std::string socket_;
  pid_t pid_ = -1;
  std::vector<depminer::ServerClient> clients_;
};

/// A closed loop over `connections` clients, one dataset each. A round
/// is: PUT a new version, one MINE (a miss), `hits` MINEs (cache hits),
/// one `MINE nocache=1` (warm). `pings` PINGs follow the rounds.
struct ServeConfig {
  size_t connections = 1;
  size_t rounds = 1;
  size_t hits = 1;
  int pings = 0;
};

struct ServeSamples {
  std::vector<double> put_s, cold_s, warm_s, hit_ms, ping_ms;
  size_t requests = 0;
  size_t hits = 0;
  size_t cacheable_mines = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  uint64_t stored_bytes = 0;    ///< under the catalog dir
  uint64_t cache_bytes = 0;     ///< under its cache/
  uint64_t live_csv_bytes = 0;  ///< CSV bytes of the latest versions
};

/// Spawns the daemon and PUTs the base relation once per connection;
/// `*setup_s` gets the time from spawn to the last PUT's reply.
std::unique_ptr<Daemon> ServeSetup(const Options& options, const Input& input,
                                   size_t connections, const std::string& name,
                                   RunReport* report, double* setup_s);

ServeSamples ServeRounds(const Options& options, const Input& input,
                         const ServeConfig& config, Daemon* daemon,
                         RunReport* report);

/// Fresh `fdtool mine` processes one after another until `seconds` pass
/// and at least `min_ops` ran; returns their wall times.
std::vector<double> CliMineLatencies(const Options& options,
                                     const Input& input, double seconds,
                                     size_t min_ops, RunReport* report,
                                     std::vector<double>* rss_mb,
                                     double* wall_s);

}  // namespace perfbench
