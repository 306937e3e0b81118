// The traced run. Each traced op is a fresh process of this binary that
// calls the library's public functions in pipeline order and reports a
// span per call; the parent keeps every span in memory and writes the
// span file when the run ends. End-to-end ops of the same run, untraced,
// give the baseline the spans are compared against.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "catalog/catalog.h"
#include "core/agree_sets.h"
#include "core/lhs.h"
#include "core/max_sets.h"
#include "fd/fd_io.h"
#include "partition/partition_database.h"
#include "relation/csv.h"
#include "serve_leg.h"
#include "server/result_cache.h"

namespace perfbench {

using namespace depminer;

namespace {

constexpr size_t kLanes = 4;
constexpr int kTracedOps = 3;

template <typename T>
T Must(Result<T> result) {
  if (!result.ok()) throw std::runtime_error(result.status().ToString());
  return std::move(result).value();
}

void Must(const Status& status) {
  if (!status.ok()) throw std::runtime_error(status.ToString());
}

// --- Child side -------------------------------------------------------------

/// Spans and counts of one traced process, printed to stdout at exit.
class Recorder {
 public:
  int Begin(const std::string& name, int parent = -1) {
    spans_.push_back({name, parent, NowNanos(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end = NowNanos(); }

  template <typename F>
  auto Time(const std::string& name, int parent, F&& body) {
    const int id = Begin(name, parent);
    auto result = body();
    End(id);
    return result;
  }

  void Count(const std::string& name, double value) { counts_[name] = value; }

  void Print(uint64_t digest) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      std::printf("span %zu %d %s %" PRId64 " %" PRId64 "\n", i,
                  spans_[i].parent, spans_[i].name.c_str(), spans_[i].start,
                  spans_[i].end);
    }
    for (const auto& [name, value] : counts_) {
      std::printf("count %s %.17g\n", name.c_str(), value);
    }
    std::printf("digest %" PRIu64 "\n", digest);
  }

 private:
  struct Raw {
    std::string name;
    int parent;
    int64_t start, end;
  };
  std::vector<Raw> spans_;
  std::map<std::string, double> counts_;
};

/// Strip, agree, cmax, lhs and FD output at `kLanes`, as fdtool runs them.
FdSet MinePipeline(Recorder* rec, int parent, const Relation& relation) {
  const StrippedPartitionDatabase db =
      rec->Time("partition.strip", parent, [&] {
        return StrippedPartitionDatabase::FromRelation(relation, kLanes);
      });
  size_t classes = 0;
  for (const StrippedPartition& p : db.partitions()) classes += p.num_classes();
  rec->Count("partition.classes", static_cast<double>(classes));
  AgreeSetOptions agree_options;
  agree_options.num_threads = kLanes;
  const AgreeSetResult agree = rec->Time("core.agree", parent, [&] {
    return ComputeAgreeSetsCouples(db, agree_options);
  });
  rec->Count("core.agree_couples", static_cast<double>(agree.couples_examined));
  rec->Count("core.agree_sets",
             static_cast<double>(agree.sets.size() +
                                 (agree.contains_empty ? 1 : 0)));
  const MaxSetResult max_sets = rec->Time(
      "core.cmax", parent, [&] { return ComputeMaxSets(agree, kLanes); });
  rec->Count("core.max_sets",
             static_cast<double>(max_sets.AllMaxSets().size()));
  const LhsResult lhs = rec->Time(
      "core.lhs", parent, [&] { return ComputeLhs(max_sets, kLanes); });
  rec->Count("core.lhs_candidates",
             static_cast<double>(lhs.stats.candidates_generated));
  rec->Count("core.lhs_transversals",
             static_cast<double>(lhs.stats.transversals_found));
  return rec->Time("fd.output", parent, [&] { return OutputFds(lhs); });
}

/// Catalog and result-cache calls on the mined data, as the daemon makes
/// them for PUT, a miss (get, store) and a hit (lookup, render).
struct ServeLayers {
  Catalog catalog;
  ResultCache cache;
  Fingerprint key;

  explicit ServeLayers(const std::string& dir)
      : catalog(OpenFresh(dir)), cache(dir + "/cache") {}

  static Catalog OpenFresh(const std::string& dir) {
    std::filesystem::create_directories(dir + "/cache");
    return Must(Catalog::Open(dir));
  }

  void Put(Recorder* rec, int parent, const Relation& relation) {
    rec->Time("catalog.put", parent, [&] {
      Must(catalog.Put("d", relation));
      return 0;
    });
    key = ResultCache::KeyFor(Must(catalog.Info("d")).fingerprint, "depminer",
                              MiningOptions{});
  }

  Relation Get(Recorder* rec, int parent) {
    return rec->Time("catalog.get", parent,
                     [&] { return Must(catalog.Get("d")); });
  }

  void Store(Recorder* rec, int parent, const Relation& relation,
             const FdSet& fds) {
    rec->Time("server.cache_store", parent, [&] {
      Must(cache.Store(key, relation.schema(), relation.num_tuples(), fds));
      return 0;
    });
  }

  // A cold lookup and render, then a warm pair as a daemon's later hits
  // see them; returns the rendered body.
  std::string Hit(Recorder* rec, int parent) {
    std::string body;
    for (const std::string suffix : {"", "_warm"}) {
      Schema schema;
      const FdSet hit =
          rec->Time("server.cache_lookup" + suffix, parent,
                    [&] { return Must(cache.Lookup(key, &schema)); });
      body = rec->Time("server.hit_emit" + suffix, parent,
                       [&] { return CoverText(hit, schema); });
    }
    return body;
  }
};

// fdtool mine: read the CSV, mine, write the cover.
uint64_t CliPipeline(Recorder* rec, const std::string& input,
                     const std::string& dir) {
  const int op = rec->Begin("op");
  const Relation relation = rec->Time(
      "relation.ingest", op, [&] { return Must(ReadCsvRelation(input)); });
  const FdSet fds = MinePipeline(rec, op, relation);
  const size_t emitted = rec->Time("fd.emit", op, [&] {
    const std::string text = FdSetToText(fds, relation.schema());
    WriteFile(dir + "/cover.fds", text);
    return text.size();
  });
  rec->End(op);
  rec->Count("fd.emit_bytes", static_cast<double>(emitted));
  return Digest(CoverText(fds, relation.schema()));
}

// PUT (parse, catalog put), a miss (get, mine, store, render) and a hit.
uint64_t ServePipeline(Recorder* rec, const std::string& input,
                       const std::string& dir) {
  const std::string body = ReadFile(input);
  ServeLayers serve(dir + "/catalog");
  const int put = rec->Begin("put");
  const Relation parsed = rec->Time(
      "relation.ingest", put, [&] { return Must(ParseCsvRelation(body)); });
  serve.Put(rec, put, parsed);
  rec->End(put);

  const int mine = rec->Begin("op");
  const Relation relation = serve.Get(rec, mine);
  const FdSet fds = MinePipeline(rec, mine, relation);
  serve.Store(rec, mine, relation, fds);
  const std::string cover = rec->Time(
      "fd.emit", mine, [&] { return CoverText(fds, relation.schema()); });
  rec->End(mine);
  rec->Count("fd.emit_bytes", static_cast<double>(cover.size()));

  const int hit_span = rec->Begin("hit");
  const std::string hit = serve.Hit(rec, hit_span);
  rec->End(hit_span);
  return hit == cover ? Digest(cover) : 0;
}

// One-lane variants for the scaling ratios and maximal classes alone. For
// the CLI workloads, whose op makes no catalog or cache call, the probe
// also times those layers on the same data, outside the op.
void Probe(Recorder* rec, const std::string& input, const std::string& dir,
           bool with_serve_layers) {
  const Relation relation = Must(ReadCsvRelation(input));
  const int root = rec->Begin("probe");
  const StrippedPartitionDatabase db =
      rec->Time("probe.strip_1lane", root, [&] {
        return StrippedPartitionDatabase::FromRelation(relation, 1);
      });
  rec->Time("core.maximal_classes", root, [&] {
    return MaximalEquivalenceClasses(db, kLanes).size();
  });
  AgreeSetOptions one_lane;
  one_lane.num_threads = 1;
  const AgreeSetResult agree = rec->Time("probe.agree_1lane", root, [&] {
    return ComputeAgreeSetsCouples(db, one_lane);
  });
  const MaxSetResult max_sets = ComputeMaxSets(agree, kLanes);
  const LhsResult lhs = rec->Time("probe.lhs_1lane", root,
                                  [&] { return ComputeLhs(max_sets, 1); });
  if (with_serve_layers) {
    const FdSet fds = OutputFds(lhs);
    ServeLayers serve(dir + "/catalog");
    serve.Put(rec, root, relation);
    serve.Get(rec, root);
    serve.Store(rec, root, relation, fds);
    serve.Hit(rec, root);
  }
  rec->End(root);
}

// --- Parent side ------------------------------------------------------------

struct Span {
  int id = 0;
  int parent = -1;
  int op = 0;
  std::string name;
  int64_t start = 0, end = 0;
  double self_s = 0;
};

class Trace {
 public:
  int Add(int parent, int op, const std::string& name, int64_t start,
          int64_t end) {
    spans_.push_back({static_cast<int>(spans_.size()), parent, op, name, start,
                      end, 0});
    return spans_.back().id;
  }

  /// Folds a child's printed spans in under `parent`; returns its digest.
  uint64_t Absorb(const std::string& out, int parent, int op) {
    std::istringstream in(out);
    std::string kind;
    std::map<int, int> ids;
    uint64_t digest = 0;
    while (in >> kind) {
      if (kind == "span") {
        int local = 0, local_parent = 0;
        std::string name;
        int64_t start = 0, end = 0;
        in >> local >> local_parent >> name >> start >> end;
        ids[local] = Add(local_parent < 0 ? parent : ids.at(local_parent), op,
                         name, start, end);
      } else if (kind == "count") {
        std::string name;
        double value = 0;
        in >> name >> value;
        counts_[name].push_back(value);
      } else if (kind == "digest") {
        in >> digest;
      } else {
        throw std::runtime_error("traced child printed: " + kind);
      }
    }
    return digest;
  }

  /// Self time: duration minus the part its children cover.
  void ComputeSelfTimes() {
    std::map<int, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[s.parent].push_back({s.start, s.end});
    }
    for (Span& s : spans_) {
      auto& kids = children[s.id];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0, reach = s.start;
      for (const auto& [a, b] : kids) {
        const int64_t from = std::max(a, reach);
        if (b > from) covered += b - from;
        reach = std::max(reach, b);
      }
      s.self_s = static_cast<double>(s.end - s.start - covered) * 1e-9;
    }
  }

  /// Median over ops of the duration of spans named `name`.
  double Seconds(const std::string& name) const {
    std::vector<double> values;
    for (const Span& s : spans_) {
      if (s.name == name) {
        values.push_back(static_cast<double>(s.end - s.start) * 1e-9);
      }
    }
    return Median(values);
  }

  /// Median over ops of the summed self time of the children of the
  /// spans named `root`.
  double ChildSeconds(const std::string& root) const {
    std::map<int, double> per_op;
    for (const Span& s : spans_) {
      if (s.parent >= 0 && spans_[s.parent].name == root) {
        per_op[s.op] += s.self_s;
      }
    }
    std::vector<double> values;
    for (const auto& [op, v] : per_op) values.push_back(v);
    return Median(values);
  }

  double CountOf(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0 : Median(it->second);
  }

  std::vector<std::string> LayerNames() const {
    std::vector<std::string> names;
    for (const Span& s : spans_) {
      if (s.name.find('.') != std::string::npos &&
          std::find(names.begin(), names.end(), s.name) == names.end()) {
        names.push_back(s.name);
      }
    }
    return names;
  }

  double SelfSeconds(const std::string& name) const {
    std::vector<double> values;
    for (const Span& s : spans_) {
      if (s.name == name) values.push_back(s.self_s);
    }
    return Median(values);
  }

  void Write(const std::string& path, const Options& options,
             double e2e_op_s, double unattributed_s) const {
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    std::string json = "{\n  \"workload\": \"" + options.workload +
                       "\",\n  \"seed\": " + std::to_string(options.seed) +
                       ",\n  \"e2e_op_s\": " + JsonNumber(e2e_op_s) +
                       ",\n  \"traced.unattributed_s\": " +
                       JsonNumber(unattributed_s) +
                       ",\n  \"self_time_s\": {";
    bool first = true;
    for (const std::string& name : LayerNames()) {
      json += std::string(first ? "\n" : ",\n") + "    \"" + name +
              "\": " + JsonNumber(SelfSeconds(name));
      first = false;
    }
    json += "\n  },\n  \"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json += std::string(i == 0 ? "\n" : ",\n") + "    {\"id\": " +
              std::to_string(s.id) + ", \"parent\": " +
              std::to_string(s.parent) + ", \"op\": " + std::to_string(s.op) +
              ", \"name\": \"" + s.name + "\", \"start_s\": " +
              JsonNumber(static_cast<double>(s.start - origin) * 1e-9) +
              ", \"end_s\": " +
              JsonNumber(static_cast<double>(s.end - origin) * 1e-9) +
              ", \"self_s\": " + JsonNumber(s.self_s) + "}";
    }
    json += "\n  ]\n}\n";
    WriteFile(path, json);
  }

 private:
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> counts_;
};

}  // namespace

int TracedOpMain(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const std::string kind = args["--traced-op"];
  const std::string input = args["--input"];
  const std::string dir = args["--dir"];
  std::filesystem::create_directories(dir);
  Recorder rec;
  uint64_t digest = 0;
  const bool serve = args["--mode"] == "serve";
  if (kind == "probe") {
    Probe(&rec, input, dir, !serve);
  } else if (serve) {
    digest = ServePipeline(&rec, input, dir);
  } else {
    digest = CliPipeline(&rec, input, dir);
  }
  rec.Print(digest);
  return 0;
}

void RunTraced(const Options& options, const Input& input,
               RunReport* report) {
  const bool serve = options.workload == "serve_mixed";
  WriteFile("input.csv", input.csv);
  // Untraced end-to-end baseline, plus a daemon leg for the server layers.
  double e2e_op_s = 0;
  ServeConfig config;
  config.pings = 20;
  if (serve) {
    config.connections = 2;
    config.hits = 25;
  } else {
    std::vector<double> rss;
    double wall = 0;
    std::vector<double> cold =
        CliMineLatencies(options, input, 0, 4, report, &rss, &wall);
    cold.erase(cold.begin());  // warm-up
    e2e_op_s = Median(cold);
    // Few hits: on dense_cover_128 each returns the whole 15 MB cover.
    config.hits = 4;
  }
  double setup_s = 0;
  std::unique_ptr<Daemon> daemon = ServeSetup(
      options, input, config.connections, "serve", report, &setup_s);
  const ServeSamples leg =
      ServeRounds(options, input, config, daemon.get(), report);
  daemon->Stop();
  if (serve) e2e_op_s = Median(leg.cold_s);

  // Traced ops, one fresh process each.
  Trace trace;
  std::vector<double> traced_walls;
  const uint64_t want = Digest(input.reference);
  for (int i = 0; i < kTracedOps; ++i) {
    for (const std::string kind : {"pipeline", "probe"}) {
      const int64_t start = NowNanos();
      const ChildResult child = RunChild(
          {options.self, "--traced-op", kind, "--mode", serve ? "serve" : "cli",
           "--input", "input.csv", "--dir", kind + std::to_string(i)},
          "traced.err");
      const int process =
          trace.Add(-1, i, "process." + kind, start, NowNanos());
      const uint64_t digest = trace.Absorb(child.out, process, i);
      if (kind == "pipeline") {
        traced_walls.push_back(child.wall_s);
        Count(report, child.exit_code == 0 && digest == want,
              "traced pipeline exit=" + std::to_string(child.exit_code));
      } else {
        Count(report, child.exit_code == 0, "traced probe");
      }
    }
  }
  trace.ComputeSelfTimes();

  auto& m = report->metrics;
  const double mb = 1024.0 * 1024.0;
  const double ingest = trace.Seconds("relation.ingest");
  m["relation.ingest_s"] = {ingest, "s"};
  m["relation.ingest_mb_per_s"] = {
      static_cast<double>(input.csv.size()) / mb / ingest, "MB/s"};
  m["catalog.put_s"] = {trace.Seconds("catalog.put"), "s"};
  m["catalog.get_s"] = {trace.Seconds("catalog.get"), "s"};
  const double strip = trace.Seconds("partition.strip");
  m["partition.strip_s"] = {strip, "s"};
  m["partition.classes"] = {trace.CountOf("partition.classes"), "count"};
  m["partition.strip_scaling"] = {
      trace.Seconds("probe.strip_1lane") / strip, "ratio"};
  m["core.maximal_classes_s"] = {trace.Seconds("core.maximal_classes"), "s"};
  const double agree = trace.Seconds("core.agree");
  const double couples = trace.CountOf("core.agree_couples");
  m["core.agree_s"] = {agree, "s"};
  m["core.agree_couples"] = {couples, "count"};
  m["core.agree_yield"] = {trace.CountOf("core.agree_sets") / couples, "ratio"};
  m["core.agree_scaling"] = {trace.Seconds("probe.agree_1lane") / agree,
                             "ratio"};
  m["core.cmax_s"] = {trace.Seconds("core.cmax"), "s"};
  m["core.max_sets"] = {trace.CountOf("core.max_sets"), "count"};
  const double lhs = trace.Seconds("core.lhs");
  const double candidates = trace.CountOf("core.lhs_candidates");
  m["core.lhs_s"] = {lhs, "s"};
  m["core.lhs_candidates"] = {candidates, "count"};
  m["core.lhs_yield"] = {
      trace.CountOf("core.lhs_transversals") / candidates, "ratio"};
  m["core.lhs_scaling"] = {trace.Seconds("probe.lhs_1lane") / lhs, "ratio"};
  m["fd.output_s"] = {trace.Seconds("fd.output"), "s"};
  const double emit = trace.Seconds("fd.emit");
  m["fd.emit_s"] = {emit, "s"};
  m["fd.emit_mb_per_s"] = {trace.CountOf("fd.emit_bytes") / mb / emit, "MB/s"};
  const double lookup_ms = trace.Seconds("server.cache_lookup") * 1e3;
  m["server.cache_lookup_ms"] = {lookup_ms, "ms"};
  m["server.cache_store_ms"] = {trace.Seconds("server.cache_store") * 1e3,
                                "ms"};
  m["server.cache_hit_ratio"] = {
      static_cast<double>(leg.hits) / static_cast<double>(leg.cacheable_mines),
      "ratio"};
  m["server.cache_bytes"] = {static_cast<double>(leg.cache_bytes), "bytes"};
  m["server.roundtrip_ms"] = {Median(leg.ping_ms), "ms"};
  m["server.overhead_ms"] = {
      Median(leg.hit_ms) - (trace.Seconds("server.cache_lookup_warm") +
                            trace.Seconds("server.hit_emit_warm")) * 1e3,
      "ms"};
  const double unattributed = e2e_op_s - trace.ChildSeconds("op");
  m["traced.unattributed_s"] = {unattributed, "s"};
  // The CLI op is the whole traced process; the served miss is its span.
  const double traced_wall = serve ? trace.Seconds("op") : Median(traced_walls);
  m["traced.overhead_ratio"] = {traced_wall / e2e_op_s, "ratio"};

  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-spans.json";
  trace.Write(path, options, e2e_op_s, unattributed);
  report->notes["span_file"] = path;
  report->notes["traced_ops"] = std::to_string(kTracedOps);
}

}  // namespace perfbench
