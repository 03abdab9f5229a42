// perfbench_load: one run of one workload against the real xsql_server.
//
//   perfbench_load --workload <point_lookup|path_analytics|mixed_rw>
//                  --seed N --seconds S --trace <0|1>
//                  --server <path to xsql_server> --work-dir <dir>
//                  [--commit <id>] [--source-digest <hex>]
//
// Builds the seeded Figure-1 instance into a durable directory, starts
// xsql_server on it (set-up, repeated and reported as a median), drives
// it over TCP from closed-loop RetryingClient connections, checks every
// reply, and prints a human-readable report ("# ..." lines) followed by
// one JSON line. --trace 1 adds the per-layer numbers: SYSTEM METRICS
// deltas across the timed window and an in-process traced replay of the
// same requests (replay.h).
//
// Exit status: 0 for a correct run; 1 when an answer was wrong or an
// acknowledged write was lost (the JSON line still says so); 2 when the
// run could not be made at all (no JSON line).
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "server/client.h"
#include "server_process.h"
#include "stats.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per run, reported as their median: at least kMinSetups, then
/// more while they have taken less than kSetupBudgetS in all, so the
/// quick small-scale set-ups are sampled as steadily as the slow ones.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;
/// The window is cut into kSlices equal slices, and the end-to-end
/// figures are computed over those in which the hypervisor stole at most
/// kQuietSteal of the host's CPU time from this guest, or over the
/// kMinKeptSlices quietest when fewer are that quiet: another guest's
/// burst on a shared host lands in a dropped slice instead of moving the
/// run, and a quiet host keeps the whole window.
constexpr int kSlices = 40;
constexpr int kMinKeptSlices = kSlices / 4;
constexpr double kQuietSteal = 0.02;
/// Untimed load before the window opens (connections, plan cache).
constexpr double kWarmupS = 1.0;
/// The statement the set-up waits on: a named individual of the
/// generated instance, so its answer is known before any oracle exists.
const char kProbe[] = "SELECT C WHERE mary123.Residence.City[C]";
const char kProbeReply[] = "C\n'newyork'\n(1 rows)\n";

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string work_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (arg == "--workload") {
      args->workload = v;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      args->trace = v == "1";
    } else if (arg == "--server") {
      args->server = v;
    } else if (arg == "--work-dir") {
      args->work_dir = v;
    } else if (arg == "--commit") {
      args->commit = v;
    } else if (arg == "--source-digest") {
      args->source_digest = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->server.empty() &&
         !args->work_dir.empty() && args->seconds > 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// The host and run, recorded next to every result.
std::map<std::string, std::string> Fingerprint(const Args& args,
                                               const WorkloadSpec& spec) {
  std::map<std::string, std::string> fp;
  fp["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    auto value = [&] {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? std::string()
                                        : line.substr(colon + 2);
    };
    if (!fp.count("cpu_model") && line.rfind("model name", 0) == 0) {
      fp["cpu_model"] = value();
    }
    if (!fp.count("cpu_mhz") && line.rfind("cpu MHz", 0) == 0) {
      fp["cpu_mhz"] = value();
    }
  }
  struct utsname uts;
  if (uname(&uts) == 0) {
    fp["kernel"] = std::string(uts.sysname) + " " + uts.release;
  }
  fp["build_type"] = PERFBENCH_BUILD_TYPE;
  fp["compiler"] =
#if defined(__clang__)
      "clang "
#elif defined(__GNUC__)
      "gcc "
#endif
      __VERSION__;
  fp["git_commit"] = args.commit;
  fp["source_digest"] = args.source_digest;
  fp["workload"] = spec.name;
  fp["seed"] = std::to_string(args.seed);
  fp["seconds"] = Num(args.seconds);
  fp["trace"] = args.trace ? "1" : "0";
  fp["scale"] = std::to_string(spec.scale);
  fp["connections"] = std::to_string(spec.connections);
  fp["writer_connections"] = std::to_string(spec.writers);
  fp["checkpoint_every"] = std::to_string(spec.checkpoint_every);
  fp["statement_mix"] = spec.mix;
  fp["zipf_theta"] = Num(kZipfTheta);
  return fp;
}

xsql::server::RetryingClientOptions ClientOptions(int port,
                                                   std::array<uint8_t, 16> id) {
  xsql::server::RetryingClientOptions options;
  options.port = port;
  options.uuid = id;
  // Generous: a B16 join or a scale-64 write is slow but not lost.
  options.timeout_ms = 30000;
  options.max_retries = 3;
  return options;
}

/// Until the server answers the probe correctly (bounded).
xsql::Status AwaitFirstCorrectReply(int port, uint64_t seed) {
  xsql::server::RetryingClient client(
      ClientOptions(port, ConnectionUuid(seed, 900)));
  const Clock::time_point start = Clock::now();
  std::string last;
  while (Since(start) < 60) {
    xsql::Result<std::string> reply = client.Execute(kProbe);
    if (reply.ok() && *reply == kProbeReply) return xsql::Status::OK();
    last = reply.ok() ? *reply : reply.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return xsql::Status::RuntimeError("server never answered the probe; last: " +
                                    last);
}

/// SYSTEM METRICS over the wire, as name -> value (histograms appear as
/// name.count / name.sum / name.p50 / name.p99).
xsql::Result<std::map<std::string, double>> ReadMetrics(
    xsql::server::RetryingClient& client) {
  XSQL_ASSIGN_OR_RETURN(std::string reply, client.Execute("SYSTEM METRICS"));
  std::map<std::string, double> metrics;
  std::istringstream in(reply);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const size_t a = line.find(" | ");
    const size_t b = line.rfind(" | ");
    if (a == std::string::npos || a == b) continue;  // "(n rows)"
    std::string name = line.substr(0, a);
    if (name.size() >= 2 && name.front() == '\'') {
      name = name.substr(1, name.size() - 2);
    }
    metrics[name] = std::atof(line.c_str() + b + 3);
  }
  return metrics;
}

double Delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

/// What one connection saw.
struct ConnStats {
  std::vector<double> read_us;
  std::vector<double> write_us;
  /// The window slice each timed read started in (parallel to read_us).
  std::vector<int> read_slice;
  /// Timed statements started per slice.
  std::vector<uint64_t> slice_ops = std::vector<uint64_t>(kSlices, 0);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t measured = 0;  // statements started inside the window
  uint64_t retries = 0;   // inside the window
  /// Last acknowledged salary per key (writers).
  std::map<size_t, int64_t> last_acked;
  std::string first_error;
};

/// Closed loop: each connection sends its next statement as soon as its
/// previous reply arrived, from now until `window_end`; only statements
/// started at or after `window_start` are timed, every one is checked.
void RunConnection(const Instance& instance, int port, uint64_t seed,
                   int conn, Clock::time_point window_start,
                   Clock::time_point window_end, ConnStats* stats) {
  xsql::server::RetryingClient client(
      ClientOptions(port, ConnectionUuid(seed, conn)));
  Stream stream(instance, seed, conn);
  uint64_t retries_at_start = 0;
  bool in_window = false;
  while (true) {
    const Clock::time_point t0 = Clock::now();
    if (t0 >= window_end) break;
    if (!in_window && t0 >= window_start) {
      in_window = true;
      retries_at_start = client.retries();
    }
    const Op op = stream.Next();
    xsql::Result<std::string> reply = client.Execute(op.text);
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    ++stats->attempted;
    if (in_window) ++stats->measured;
    std::string why;
    if (!reply.ok()) {
      why = op.text + ": " + reply.status().ToString();
    } else if (!instance.CheckReply(op, *reply, &why)) {
      why = "wrong answer: " + why;
    }
    if (!why.empty()) {
      ++stats->failed;
      if (stats->first_error.empty()) stats->first_error = why;
      continue;
    }
    if (op.kind == OpKind::kWrite) stats->last_acked[op.key] = op.value;
    if (in_window) {
      const int slice = std::min(
          kSlices - 1,
          static_cast<int>(kSlices * (t0 - window_start) /
                           (window_end - window_start)));
      ++stats->slice_ops[static_cast<size_t>(slice)];
      if (op.kind == OpKind::kWrite) {
        stats->write_us.push_back(us);
      } else {
        stats->read_us.push_back(us);
        stats->read_slice.push_back(slice);
      }
    }
  }
  stats->retries = client.retries() - retries_at_start;
}

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> extra;

  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 5) errors.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Reported in the human-readable lines and the results file only.
  void Note(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, {value, unit}});
  }
};

/// The host's CPU time so far, in clock ticks: all of it and the part
/// stolen by the hypervisor for other guests (/proc/stat "cpu" line).
struct CpuTicks {
  double total = 0;
  double steal = 0;
};

CpuTicks HostCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  double field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;  // user nice system idle iowait irq
  }                                   // softirq steal
  return ticks;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// Size of the live generation's snapshot: the logical data the
/// directory stores.
uint64_t LiveSnapshotBytes(const std::string& dir) {
  std::ifstream current(xsql::storage::DurableDatabase::CurrentPath(dir));
  uint64_t gen = 0;
  current >> gen;
  std::error_code ec;
  const uint64_t bytes = std::filesystem::file_size(
      xsql::storage::DurableDatabase::SnapshotPath(dir, gen), ec);
  return ec ? 0 : bytes;
}

int Run(const Args& args) {
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  WorkloadSpec spec = *found;
  // Never more connections than cores: the load process must not queue
  // behind itself.
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (nproc > 0 && spec.connections > nproc) {
    spec.connections = std::max(nproc, spec.writers > 0 ? 2 : 1);
    if (spec.writers > 0) spec.writers = spec.connections / 2;
  }
  const std::map<std::string, std::string> fingerprint =
      Fingerprint(args, spec);

  const std::string base = args.work_dir + "/" + spec.name;
  const std::string server_dir = base + "/server";
  const std::string local_dir = base + "/local";
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
  std::filesystem::create_directories(base, ec);
  std::filesystem::create_directories(args.work_dir + "/results", ec);
  std::vector<std::string> server_args;
  if (spec.checkpoint_every != 0) {
    server_args = {"--checkpoint-every",
                   std::to_string(spec.checkpoint_every)};
  }

  // ---- Set-up: generate + checkpoint, start (recovery), first reply.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<ServerProcess> server;
  double setup_total_s = 0;
  for (int k = 0; k < kMaxSetups &&
                  (k < kMinSetups || setup_total_s < kSetupBudgetS);
       ++k) {
    server.reset();  // the previous set-up's server, killed and reaped
    const Clock::time_point t0 = Clock::now();
    double gen = 0;
    xsql::Status st = BuildInstanceDir(spec, args.seed, server_dir, &gen);
    if (!st.ok()) {
      std::fprintf(stderr, "build instance: %s\n", st.ToString().c_str());
      return 2;
    }
    xsql::Result<std::unique_ptr<ServerProcess>> started =
        ServerProcess::Start(args.server, server_dir, server_args);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
      return 2;
    }
    server = std::move(*started);
    st = AwaitFirstCorrectReply(server->port(), args.seed);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    setup_s.push_back(Since(t0));
    setup_total_s += setup_s.back();
    generate_s.push_back(gen);
  }

  // The oracle and the replay open a copy of what the server opened.
  std::filesystem::copy(server_dir, local_dir,
                        std::filesystem::copy_options::recursive, ec);
  if (ec) {
    std::fprintf(stderr, "copy instance: %s\n", ec.message().c_str());
    return 2;
  }
  xsql::Result<std::unique_ptr<Instance>> loaded =
      Instance::Load(spec, args.seed, local_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "oracle: %s\n", loaded.status().ToString().c_str());
    return 2;
  }
  Instance& instance = **loaded;

  // ---- The timed window. With --trace 1 it is half the run; the
  // replays take the other half.
  const int port = server->port();
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  xsql::server::RetryingClient monitor(
      ClientOptions(port, ConnectionUuid(args.seed, 901)));
  std::vector<ConnStats> stats(static_cast<size_t>(spec.connections));
  // The set-up server's recovery time, before any load.
  double recovery_s = 0;
  {
    xsql::Result<std::map<std::string, double>> m = ReadMetrics(monitor);
    if (m.ok()) recovery_s = (*m)["xsql.storage.recovery_us.sum"] / 1e6;
  }
  std::map<std::string, double> before, after;
  double live_versions_max = 0;
  // Host CPU ticks at every slice boundary of the window.
  std::vector<CpuTicks> marks(kSlices + 1);
  {
    const Clock::time_point window_start =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kWarmupS));
    const Clock::time_point window_end =
        window_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(window_s));
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      for (int k = 0; k <= kSlices; ++k) {
        std::this_thread::sleep_until(
            window_start + (window_end - window_start) * k / kSlices);
        marks[static_cast<size_t>(k)] = HostCpuTicks();
      }
    });
    for (int c = 0; c < spec.connections; ++c) {
      threads.emplace_back(RunConnection, std::cref(instance), port,
                           args.seed, c, window_start, window_end,
                           &stats[static_cast<size_t>(c)]);
    }
    if (args.trace) {
      std::this_thread::sleep_until(window_start);
      xsql::Result<std::map<std::string, double>> m = ReadMetrics(monitor);
      if (m.ok()) before = *m;
      // Peak live versions: the gauge sampled through the window.
      while (Clock::now() + std::chrono::milliseconds(250) < window_end) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        m = ReadMetrics(monitor);
        if (m.ok()) {
          live_versions_max =
              std::max(live_versions_max, (*m)["xsql.mvcc.live_versions"]);
        }
      }
      std::this_thread::sleep_until(window_end);
      m = ReadMetrics(monitor);
      if (m.ok()) after = *m;
      live_versions_max =
          std::max(live_versions_max, after["xsql.mvcc.live_versions"]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double server_rss_mb = server->PeakRssMb();

  RunReport result;
  std::vector<double> read_us, write_us;
  uint64_t measured = 0, retries = 0;
  std::map<size_t, int64_t> last_acked;
  std::vector<double> slice_ops(kSlices, 0);
  std::vector<std::vector<double>> slice_reads(kSlices);
  for (const ConnStats& s : stats) {
    for (int k = 0; k < kSlices; ++k) {
      slice_ops[static_cast<size_t>(k)] +=
          static_cast<double>(s.slice_ops[static_cast<size_t>(k)]);
    }
    for (size_t i = 0; i < s.read_us.size(); ++i) {
      slice_reads[static_cast<size_t>(s.read_slice[i])].push_back(
          s.read_us[i]);
    }
    read_us.insert(read_us.end(), s.read_us.begin(), s.read_us.end());
    write_us.insert(write_us.end(), s.write_us.begin(), s.write_us.end());
    result.attempted += s.attempted;
    result.failed += s.failed;
    measured += s.measured;
    retries += s.retries;
    last_acked.insert(s.last_acked.begin(), s.last_acked.end());
    if (!s.first_error.empty()) result.Fail(s.first_error);
  }
  // Throughput and read percentiles over the slices with the least
  // steal.
  auto steal = [&](size_t from, size_t to) {
    return Ratio(marks[to].steal - marks[from].steal,
                 marks[to].total - marks[from].total);
  };
  std::vector<size_t> kept(kSlices);
  for (size_t k = 0; k < kept.size(); ++k) kept[k] = k;
  std::stable_sort(kept.begin(), kept.end(), [&](size_t a, size_t b) {
    return steal(a, a + 1) < steal(b, b + 1);
  });
  size_t quiet = 0;
  while (quiet < kept.size() && steal(kept[quiet], kept[quiet] + 1) <=
                                    kQuietSteal) {
    ++quiet;
  }
  kept.resize(std::max<size_t>(quiet, kMinKeptSlices));
  double kept_ops = 0;
  double kept_steal = 0;
  std::vector<double> kept_reads;
  for (size_t k : kept) {
    kept_ops += slice_ops[k];
    kept_steal += steal(k, k + 1) / static_cast<double>(kept.size());
    kept_reads.insert(kept_reads.end(), slice_reads[k].begin(),
                      slice_reads[k].end());
  }
  const double kept_s = window_s * static_cast<double>(kept.size()) / kSlices;
  const double read_p50 = Percentile(kept_reads, 50);

  // ---- Durability: SIGKILL, restart, read back every key's last
  // acknowledged write.
  double restart_s = 0;
  if (spec.writers > 0) {
    server->Kill();
    const Clock::time_point t0 = Clock::now();
    xsql::Result<std::unique_ptr<ServerProcess>> restarted =
        ServerProcess::Start(args.server, server_dir, server_args);
    if (!restarted.ok()) {
      std::fprintf(stderr, "restart: %s\n",
                   restarted.status().ToString().c_str());
      return 2;
    }
    server = std::move(*restarted);
    xsql::Status st = AwaitFirstCorrectReply(server->port(), args.seed);
    if (!st.ok()) {
      std::fprintf(stderr, "restart: %s\n", st.ToString().c_str());
      return 2;
    }
    restart_s = Since(t0);
    xsql::server::RetryingClient checker(
        ClientOptions(server->port(), ConnectionUuid(args.seed, 902)));
    xsql::Result<std::map<std::string, double>> m = ReadMetrics(checker);
    if (m.ok()) {
      recovery_s = (*m)["xsql.storage.recovery_us.sum"] / 1e6;
    }
    uint64_t lost = 0;
    for (const auto& [key, value] : last_acked) {
      const std::string text =
          "SELECT S WHERE " + instance.keys()[key] + ".Salary[S]";
      xsql::Result<std::string> reply = checker.Execute(text);
      ++result.attempted;
      const std::string want =
          Instance::SalaryReply(xsql::Oid::Int(value));
      if (!reply.ok() || *reply != want) {
        ++lost;
        ++result.failed;
        result.Fail("lost acknowledged write: " + text + " expected:\n" +
                    want + "got:\n" +
                    (reply.ok() ? *reply : reply.status().ToString()));
      }
    }
    result.Note("durability.keys_checked",
                static_cast<double>(last_acked.size()), "count");
    result.Note("durability.lost_writes", static_cast<double>(lost),
                "count");
  }
  server->Stop();
  const double disk_amplification = Ratio(
      static_cast<double>(DirBytes(server_dir)),
      static_cast<double>(LiveSnapshotBytes(server_dir)));
  server.reset();

  const double write_p50 = Percentile(write_us, 50);
  if (result.failed != 0) result.correct = false;

  if (!args.trace) {
    result.Add("throughput_ops", kept_ops / kept_s, "ops/s");
    result.Add("read_p50_us", read_p50, "us");
    result.Add("read_p99_us", Percentile(kept_reads, 99), "us");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("server_rss_mb", server_rss_mb, "MB");
  } else {
    // ---- The traced replay, and its untraced twin for the overhead.
    Replayer replayer(&instance, args.seed);
    // One span dump per workload, overwritten by its next traced run.
    const std::string prefix = args.work_dir + "/results/" + spec.name;
    std::vector<uint64_t> weights;
    for (const ConnStats& s : stats) weights.push_back(s.attempted);
    ReplayReport traced =
        replayer.Run(args.seconds / 4, /*traced=*/true, 0, weights, prefix);
    ReplayReport bare =
        replayer.Run(args.seconds / 4, /*traced=*/false, 1, weights, prefix);
    for (const ReplayReport* r : {&traced, &bare}) {
      if (r->wrong != 0) {
        result.failed += r->wrong;
        result.Fail(r->first_error);
      }
      result.attempted += r->requests;
    }

    const double ops = Delta(after, before, "xsql.server.statements_served");
    const double writes =
        Delta(after, before, "xsql.server.write_statements");
    const double hits = Delta(after, before, "xsql.plan.cache_hits");
    const double misses = Delta(after, before, "xsql.plan.cache_misses");
    const double wait_sum =
        Delta(after, before, "xsql.server.latch_wait_us.sum");
    const double wait_count =
        Delta(after, before, "xsql.server.latch_wait_us.count");
    const double batch_rows = Delta(after, before, "xsql.exec.batch_rows");

    result.Add("server.wire_us", read_p50 - traced.request_read_p50_us,
               "us");
    result.Add("server.classify_us", traced.layer_us["server.classify_us"],
               "us");
    result.Add("server.exec_us", traced.layer_us["server.exec_us"], "us");
    result.Add("server.latch_wait_us", Ratio(wait_sum, wait_count), "us");
    result.Add("server.shed_frac",
               Ratio(Delta(after, before, "xsql.server.shed_statements"),
                     ops),
               "ratio");
    result.Add("client.retries_per_op",
               Ratio(static_cast<double>(retries),
                     static_cast<double>(measured)),
               "ratio");
    result.Add("client.read_p99_us", Percentile(kept_reads, 99), "us");
    result.Add("client.read_samples", static_cast<double>(read_us.size()),
               "count");
    result.Add("client.write_samples", static_cast<double>(write_us.size()),
               "count");
    result.Add("client.write_p50_us", write_p50, "us");
    result.Add("client.write_p99_us", Percentile(write_us, 99), "us");
    result.Add("client.fail_frac",
               Ratio(static_cast<double>(result.failed),
                     static_cast<double>(result.attempted)),
               "ratio");
    result.Add("parser.parse_us", traced.layer_us["parser.parse_us"], "us");
    result.Add("parser.parses_per_op",
               Ratio(Delta(after, before, "xsql.parse.statements"), ops),
               "ratio");
    result.Add("typing.prepare_us", traced.layer_us["typing.prepare_us"],
               "us");
    result.Add("plan.hit_ratio", Ratio(hits, hits + misses), "ratio");
    result.Add("plan.invalidations_per_write",
               Ratio(Delta(after, before, "xsql.plan.cache_invalidations"),
                     writes),
               "ratio");
    result.Add("eval.read_us", traced.layer_us["eval.read_us"], "us");
    result.Add("eval.apply_us", traced.layer_us["eval.apply_us"], "us");
    result.Add("eval.rows_examined_per_row",
               Ratio(batch_rows, Delta(after, before, "xsql.eval.rows")),
               "ratio");
    result.Add("exec.filter_ratio",
               Ratio(Delta(after, before, "xsql.exec.batch_filtered"),
                     batch_rows),
               "ratio");
    result.Add("path.values_per_op",
               Ratio(Delta(after, before, "xsql.path.values"), ops), "ratio");
    result.Add("plan.hash_joins_per_op",
               Ratio(Delta(after, before, "xsql.plan.hash_joins"), ops),
               "ratio");
    result.Add("store.active_domain_us",
               traced.layer_us["store.active_domain_us"], "us");
    // The share of a write's client p50 spent in active-domain
    // rebuilds: its own, plus the rebuild's part of the latch hold it
    // queued behind (the holder runs apply, rebuild and fork).
    const double rebuild = traced.layer_us["store.active_domain_us"];
    const double hold = traced.layer_us["eval.apply_us"] + rebuild +
                        traced.layer_us["store.fork_us"];
    result.Add("store.active_domain_share",
               Ratio(rebuild + Ratio(wait_sum, wait_count) *
                                   Ratio(rebuild, hold),
                     write_p50),
               "ratio");
    result.Add("store.fork_us", traced.layer_us["store.fork_us"], "us");
    result.Add("mvcc.cow_bytes_per_write",
               Ratio(Delta(after, before, "xsql.mvcc.cow_bytes"), writes),
               "B");
    result.Add("mvcc.cow_clones_per_write",
               Ratio(Delta(after, before, "xsql.mvcc.cow_clones"), writes),
               "ratio");
    result.Add("mvcc.live_versions_max", live_versions_max, "count");
    result.Add("storage.commit_wait_us",
               traced.layer_us["storage.commit_wait_us"], "us");
    result.Add("storage.fsyncs_per_write",
               Ratio(Delta(after, before, "xsql.storage.fsyncs"), writes),
               "ratio");
    result.Add("storage.wal_bytes_per_write",
               Ratio(Delta(after, before, "xsql.storage.wal_bytes"), writes),
               "B");
    result.Add("storage.checkpoint_us",
               traced.layer_us["storage.checkpoint_us"], "us");
    result.Add("storage.checkpoints",
               Delta(after, before, "xsql.storage.checkpoints"), "count");
    result.Add("storage.recovery_s", recovery_s, "s");
    result.Add("storage.disk_bytes_per_user_byte", disk_amplification,
               "ratio");
    result.Add("workload.generate_s", Median(generate_s), "s");
    result.Add("trace.overhead_frac",
               1 - Ratio(traced.requests_per_s, bare.requests_per_s),
               "ratio");
    result.Note("trace.replay_requests",
                static_cast<double>(traced.requests), "count");
    result.Note("trace.replay_requests_per_s", traced.requests_per_s,
                "1/s");
    result.Note("trace.session_prepares",
                static_cast<double>(traced.session_prepares), "count");
  }
  if (!args.trace) {
    // For the reader and the results file; a traced run reports these
    // as per-layer metrics.
    result.Note("client.read_samples", static_cast<double>(read_us.size()),
                "count");
    result.Note("client.read_samples_kept",
                static_cast<double>(kept_reads.size()), "count");
    result.Note("client.read_p90_us", Percentile(kept_reads, 90), "us");
    result.Note("client.write_samples",
                static_cast<double>(write_us.size()), "count");
    result.Note("client.write_p50_us", write_p50, "us");
    result.Note("client.write_p99_us", Percentile(write_us, 99), "us");
    result.Note("fail_frac",
                Ratio(static_cast<double>(result.failed),
                      static_cast<double>(result.attempted)),
                "ratio");
    result.Note("storage.recovery_s", recovery_s, "s");
    result.Note("workload.generate_s", Median(generate_s), "s");
  }
  if (spec.writers > 0) result.Note("restart_s", restart_s, "s");
  // Other guests' load on the host: figures from a run with a high
  // share here are the host's, not the program's.
  result.Note("host.steal_frac", steal(0, kSlices), "ratio");
  result.Note("host.steal_frac_kept_slices", kept_steal, "ratio");
  result.Note("host.kept_slices", static_cast<double>(kept.size()), "count");

  // ---- Report: human-readable lines, a results file, the JSON line.
  std::string fp_json = "{";
  for (const auto& [k, v] : fingerprint) {
    if (fp_json.size() > 1) fp_json += ", ";
    fp_json += JsonString(k) + ": " + JsonString(v);
  }
  fp_json += "}";
  std::printf("# fingerprint %s\n", fp_json.c_str());
  for (const Template& t : instance.templates()) {
    std::printf("# template %s oracle=%s\n", t.id.c_str(), t.oracle.c_str());
  }
  for (const auto& [name, v] : result.metrics) {
    std::printf("# metric %s = %s %s\n", name.c_str(), Num(v.first).c_str(),
                v.second.c_str());
  }
  for (const auto& [name, v] : result.extra) {
    std::printf("# info %s = %s %s\n", name.c_str(), Num(v.first).c_str(),
                v.second.c_str());
  }
  for (const std::string& e : result.errors) {
    std::printf("# error %s\n", e.c_str());
  }

  std::string metrics_json = "{";
  for (const auto& [name, v] : result.metrics) {
    if (metrics_json.size() > 1) metrics_json += ", ";
    metrics_json += JsonString(name) + ": {\"value\": " + Num(v.first) +
                    ", \"unit\": " + JsonString(v.second) + "}";
  }
  metrics_json += "}";
  const std::string line =
      std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + metrics_json + "}";

  std::string extra_json = "{";
  for (const auto& [name, v] : result.extra) {
    if (extra_json.size() > 1) extra_json += ", ";
    extra_json += JsonString(name) + ": " + Num(v.first);
  }
  extra_json += "}";
  std::ofstream(args.work_dir + "/results/" + spec.name + "-seed" +
                std::to_string(args.seed) + "-trace" +
                (args.trace ? "1" : "0") + ".json")
      << "{\"fingerprint\": " << fp_json << ", \"info\": " << extra_json
      << ", \"result\": " << line << "}\n";

  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(base, ec);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                 "--server PATH --work-dir DIR [--commit ID] "
                 "[--source-digest HEX]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
