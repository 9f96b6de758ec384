// perfbench_harness: one benchmark run against a real pipemap_server.
//
//   perfbench_harness --workload paper_hit|dp_cold --seed N
//                    --seconds S --trace 0|1 --server PATH --work-dir DIR
//
// Builds the workload's requests from the seed, computes the oracle's
// answers outside the timed window, spawns the server several times to
// time set-up (spawn to end of warm-up), drives the last one for S
// seconds from at most four connections, checks every response, and
// prints one JSON document on stdout: end-to-end metrics, failure counts,
// the workload-shape checks, and with --trace 1 the per-layer metrics of
// an in-process traced replay of the same requests. perfbench/run.py
// builds this binary and the server and turns that document into the
// benchmark's result line.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "requests.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server_process.h"
#include "spans.h"
#include "support/json_verify.h"
#include "support/json_writer.h"
#include "support/parse.h"
#include "support/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Fixed shape of each workload. These are the benchmark's definition;
/// run.py copies them into every result file.
/// Every workload is a closed loop: each connection sends its next
/// request when the previous response has arrived.
struct WorkloadSpec {
  const char* name;
  int connections;
  /// The reported tail percentile. A window of the benchmark's
  /// run_seconds holds 3,000-21,000 requests, so p99 would keep ten
  /// samples beyond it too; but a vCPU the hypervisor takes away for a
  /// few ms lands in the top percent, and across runs on either side of a
  /// change in the host's steal the p99 moved 75-90% where p95 moved 18%.
  double tail_percentile;
  /// Latency limit behind slo_attainment.
  double slo_ms;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"paper_hit", 4, 95.0, 8.0},
    {"dp_cold", 4, 95.0, 60.0},
};

/// Server start-ups per run; setup_s is the median of these. The last
/// one is measured.
constexpr int kSetups = 11;

/// dp_cold solver threads. On a 4-vCPU guest whose host other guests
/// share, a 4-thread sweep on one connection waits at every barrier for
/// whichever vCPU the hypervisor has taken away, and made fewer solves
/// per second than one thread did. Four connections of one-thread solves
/// keep every vCPU busy, as paper_hit does.
/// core.dp_us_t1/t4 time both thread counts.
constexpr int kColdThreads = 1;

enum class Kind { kHit, kMiss };

/// One request of a closed loop.
struct Request {
  Kind kind = Kind::kHit;
  /// kHit: which paper frame; a miss carries its own frame.
  int paper = 0;
  std::string frame;
};

/// The paper chains' map frames and the oracle's fragment for each.
struct Plan {
  std::vector<std::string> frames;
  std::vector<std::string> expected;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string work_dir;
};

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  pipemap::Rng rng(seed * 0x9E3779B97F4A7C15ull ^ (stream << 32) ^ i);
  return rng.NextU64();
}

/// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(std::size_t n, int threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

// --- Requests ----------------------------------------------------------------

/// The i-th never-seen dp_cold problem of `stream` (0 = warm-up, 1 + c =
/// connection c).
std::string DpColdFrame(std::uint64_t seed, int stream, int i) {
  return MapFrame(SyntheticProblem(Mix(seed, 10 + stream, i), i),
                  kColdThreads);
}

/// The i-th request of connection `c`, drawn from the seed alone.
/// paper_hit: a uniformly chosen paper chain. dp_cold: a never-seen
/// synthetic chain.
Request NextRequest(const WorkloadSpec& spec, int papers, std::uint64_t seed,
                    int c, int i) {
  Request r;
  if (std::string(spec.name) == "dp_cold") {
    r.kind = Kind::kMiss;
    r.frame = DpColdFrame(seed, 1 + c, i);
    return r;
  }
  pipemap::Rng rng(Mix(seed, 30 + static_cast<std::uint64_t>(c), i));
  r.paper = rng.UniformInt(0, papers - 1);
  return r;
}

/// The oracle's fragment for every frame, four solves at a time.
std::vector<std::string> Expected(const std::vector<std::string>& frames) {
  std::vector<std::string> expected(frames.size());
  pipemap::MappingEngine oracle;
  ParallelFor(frames.size(), 4, [&](std::size_t i) {
    expected[i] = Replay(oracle, frames[i], /*use_cache=*/false);
  });
  return expected;
}

/// The host's CPU time so far, in jiffies: steal (time the hypervisor
/// gave to other guests while this one wanted to run), and busy time,
/// which is everything but idle and iowait and includes the steal. Each
/// result records the window's steal share: with other guests busy, every
/// figure slows with it.
struct Jiffies {
  double steal = 0.0;
  double busy = 0.0;
};

Jiffies CpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  Jiffies j;
  double v = 0.0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    if (field != 3 && field != 4) j.busy += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

/// Share of the busy CPU time between `a` and `b` that was stolen.
double StealShare(const Jiffies& a, const Jiffies& b) {
  const double busy = b.busy - a.busy;
  return busy > 0.0 ? (b.steal - a.steal) / busy : 0.0;
}

// --- Response checking -------------------------------------------------------

/// Every request of one window and how it ended.
struct Tally {
  /// One per request: from the send to the response; +inf when it
  /// failed, so it misses every latency limit.
  std::vector<double> latency_ms;
  std::map<std::string, std::uint64_t> failures;
  std::map<std::string, std::uint64_t> shape_violations;
  std::map<std::string, std::uint64_t> tiers;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t bytes_sent = 0;

  void Merge(const Tally& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    for (const auto& [k, v] : o.failures) failures[k] += v;
    for (const auto& [k, v] : o.shape_violations) shape_violations[k] += v;
    for (const auto& [k, v] : o.tiers) tiers[k] += v;
    attempted += o.attempted;
    ok += o.ok;
    bytes_sent += o.bytes_sent;
  }
};

/// Classifies one map response; returns the failure kind or "" when
/// correct.
std::string Classify(const std::string& response, const std::string& expected) {
  if (!pipemap::IsValidJson(response)) return "malformed";
  if (FieldValue(response, "ok") != "true") {
    std::string code = FieldValue(response, "code");
    if (code.size() >= 2) code = code.substr(1, code.size() - 2);
    return code.empty() ? "malformed" : code;
  }
  if (FieldValue(response, "degraded") == "true") return "degraded";
  if (FieldValue(response, "timed_out") == "true") return "timed_out";
  if (FieldValue(response, "deadline_expired") == "true") {
    return "deadline_expired";
  }
  if (response.find(expected) == std::string::npos) return "mismatch";
  return "";
}

void Record(const WorkloadSpec& spec, Kind kind, const std::string& response,
            const std::string& expected, double latency_ms, Tally* tally) {
  const std::string failure = Classify(response, expected);
  if (!failure.empty()) {
    ++tally->failures[failure];
    tally->latency_ms.push_back(std::numeric_limits<double>::infinity());
    return;
  }
  ++tally->ok;
  tally->latency_ms.push_back(latency_ms);
  const bool hit = FieldValue(response, "cache_hit") == "true";
  const std::string tier = FieldValue(response, "cache_tier");
  ++tally->tiers[hit ? tier : "\"miss\""];
  const std::string name = spec.name;
  if (name == "paper_hit" && (!hit || tier != "\"memory\"")) {
    ++tally->shape_violations["paper_hit response not a memory hit"];
  }
  if (kind == Kind::kMiss && hit) {
    ++tally->shape_violations["never-seen request was a cache hit"];
  }
}

// --- Driving the server --------------------------------------------------------

std::string CallOrThrow(pipemap::server::ServerClient& client,
                        const std::string& frame) {
  const std::string response = client.CallRaw(frame);
  if (FieldValue(response, "ok") != "true") {
    throw std::runtime_error("warm-up request failed: " + response);
  }
  return response;
}

/// Brings a fresh server to the state the timed window starts from.
void WarmUp(const WorkloadSpec& spec, const Plan& plan, std::uint64_t seed,
            pipemap::server::ServerClient& client) {
  if (std::string(spec.name) == "dp_cold") {
    for (int i = 0; i < 2; ++i) CallOrThrow(client, DpColdFrame(seed, 0, i));
    return;
  }
  // paper_hit: every paper chain solved, then hit once.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < 6; ++i) CallOrThrow(client, plan.frames[i]);
  }
}

/// Named server counters.
using Counters = std::map<std::string, double>;

double NumberAfter(const std::string& text, const std::string& needle) {
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

/// The child's own counters: the `stats` op and the queue-wait histogram
/// of the `metrics` op.
Counters ReadCounters(pipemap::server::ServerClient& client) {
  pipemap::server::ServerRequest req;
  req.op = "stats";
  const std::string stats = client.Call(req);
  req.op = "metrics";
  const std::string metrics = client.Call(req);
  Counters out;
  for (const char* key : {"shed", "rejected", "timed_out", "completed", "hits",
                          "misses", "evictions", "inserts", "writes"}) {
    out[key] = std::strtod(FieldValue(stats, key).c_str(), nullptr);
  }
  out["queue_wait_us_sum"] =
      NumberAfter(metrics, "pipemap_server_queue_wait_us_sum ");
  out["queue_wait_us_count"] =
      NumberAfter(metrics, "pipemap_server_queue_wait_us_count ");
  return out;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [k, v] : after) d[k] = v - before.at(k);
  return d;
}

/// A dp_cold request sent in the window, checked against the oracle
/// after it.
struct Deferred {
  std::string frame;
  std::string response;
  double latency_ms = 0.0;
};

/// The timed window on one server.
struct Window {
  Tally tally;
  double seconds = 0.0;
  std::vector<Deferred> deferred;
  /// Steal share of the host's busy CPU time during the window.
  double steal_share = 0.0;
  /// The server's counter deltas over the window, its peak RSS, and
  /// whether it then drained and exited 0.
  Counters server;
  double rss_mb = 0.0;
  bool clean_exit = false;
};

Window RunClosedLoop(const WorkloadSpec& spec, const Plan& plan,
                     std::uint64_t seed, double seconds,
                     std::vector<std::unique_ptr<pipemap::server::ServerClient>>&
                         clients) {
  std::vector<Window> per(static_cast<std::size_t>(spec.connections));
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto worker = [&](int c) {
    Window& w = per[static_cast<std::size_t>(c)];
    for (int i = 0; Clock::now() < stop; ++i) {
      Request r = NextRequest(spec, static_cast<int>(plan.frames.size()),
                              seed, c, i);
      const std::string& payload =
          r.kind == Kind::kHit ? plan.frames[static_cast<std::size_t>(r.paper)]
                               : r.frame;
      ++w.tally.attempted;
      w.tally.bytes_sent += payload.size();
      const Clock::time_point t0 = Clock::now();
      std::string response;
      try {
        response = clients[static_cast<std::size_t>(c)]->CallRaw(payload);
      } catch (const std::exception&) {
        ++w.tally.failures["transport"];
        w.tally.latency_ms.push_back(std::numeric_limits<double>::infinity());
        break;  // the connection is gone; the rest of the window is lost
      }
      const double latency_ms = 1e3 * Seconds(t0, Clock::now());
      if (r.kind == Kind::kHit) {
        Record(spec, Kind::kHit, response,
               plan.expected[static_cast<std::size_t>(r.paper)], latency_ms,
               &w.tally);
      } else {
        w.deferred.push_back(
            {std::move(r.frame), std::move(response), latency_ms});
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < spec.connections; ++c) threads.emplace_back(worker, c);
  worker(0);
  for (std::thread& t : threads) t.join();
  Window out;
  out.seconds = Seconds(start, Clock::now());
  for (Window& w : per) {
    out.tally.Merge(w.tally);
    for (Deferred& d : w.deferred) out.deferred.push_back(std::move(d));
  }
  return out;
}

// --- Traced replay ------------------------------------------------------------

struct LayerRun {
  std::map<std::string, double> metrics;
  std::string spans_json;
};

/// Replays the run's own requests in-process through the functions the
/// server's handlers call, with a span around each layer call.
LayerRun TracedReplay(const WorkloadSpec& spec, const Plan& plan,
                      const std::vector<std::string>& sent_frames,
                      const std::string& cache_dir) {
  const std::string name = spec.name;
  // Requests in workload order, then the distinct problems used for the
  // solver, report and persistence layers.
  std::vector<std::string> sequence;
  std::vector<std::string> distinct;
  if (name == "dp_cold") {
    const std::size_t n = std::min<std::size_t>(sent_frames.size(), 8);
    sequence.assign(sent_frames.begin(), sent_frames.begin() + n);
    distinct = sequence;
  } else {
    distinct = plan.frames;
    for (int round = 0; round < 40; ++round) {
      sequence.insert(sequence.end(), distinct.begin(), distinct.end());
    }
  }

  SpanRecorder spans;
  std::uint64_t rid = 0;
  SolverCounts solver_totals;
  double imbalance_sum = 0.0;
  std::size_t solver_runs = 0;
  {
    pipemap::EngineConfig config;
    config.cache_dir = cache_dir;
    pipemap::MappingEngine engine(config);
    for (const std::string& frame : sequence) {
      Replay(engine, frame, true, &spans, ++rid);
    }
    // Hits for every workload (dp_cold never hits in its window).
    for (const std::string& frame : distinct) {
      Replay(engine, frame, true, &spans, ++rid);
    }
    // The sim layer, as a report request on each distinct problem.
    for (const std::string& frame : distinct) {
      pipemap::server::ServerRequest r =
          pipemap::server::ParseServerRequest(frame);
      r.op = "report";
      r.noise = 0.03;
      Replay(engine, pipemap::server::SerializeServerRequest(r), true, &spans,
             ++rid);
    }
    const std::size_t solver_samples = name == "dp_cold" ? 4 : distinct.size();
    for (std::size_t i = 0; i < solver_samples && i < distinct.size(); ++i) {
      const SolverCounts c = TimeSolvers(distinct[i], &spans, ++rid);
      solver_totals.dp_work += c.dp_work;
      solver_totals.dp_pruned_cells += c.dp_pruned_cells;
      imbalance_sum += c.dp_work_imbalance;
      ++solver_runs;
    }
    engine.cache().FlushPersistence();
  }
  {
    // Reopen on the populated directory: first touches are disk hits.
    pipemap::EngineConfig config;
    config.cache_dir = cache_dir;
    pipemap::MappingEngine reopened(config);
    for (const std::string& frame : distinct) {
      Replay(reopened, frame, true, &spans, ++rid);
    }
  }

  // Tracing overhead: the same hits with and without spans, interleaved.
  LayerRun out;
  {
    pipemap::MappingEngine engine;
    for (const std::string& frame : distinct) Replay(engine, frame, true);
    SpanRecorder twin;
    std::vector<double> untraced_us;
    for (int round = 0; round < 10; ++round) {
      for (const std::string& frame : distinct) {
        const Clock::time_point t0 = Clock::now();
        Replay(engine, frame, true);
        untraced_us.push_back(1e6 * Seconds(t0, Clock::now()));
        Replay(engine, frame, true, &twin, 0);
      }
    }
    out.metrics["trace.overhead_us"] =
        twin.Summarize()["request"].median_us - Median(untraced_us);
  }

  const std::map<std::string, SpanSummary> summary = spans.Summarize();
  auto self_us = [&](const char* span) {
    const auto it = summary.find(span);
    return it == summary.end() ? 0.0 : it->second.median_self_us;
  };
  std::map<std::string, double>& m = out.metrics;
  m["server.request_decode_us"] = self_us("server.request_decode");
  m["io.parse_chain_us"] = self_us("io.parse_chain");
  m["io.parse_machine_us"] = self_us("io.parse_machine");
  m["io.serialize_mapping_us"] = self_us("io.serialize_mapping");
  m["engine.fingerprint_us"] = self_us("engine.fingerprint");
  m["engine.map_hit_us"] = self_us("engine.map_hit");
  m["engine.map_miss_us"] = self_us("engine.map_miss");
  m["engine.persist_load_us"] = self_us("engine.persist_load");
  m["core.evaluator_build_us"] = self_us("core.evaluator_build");
  m["core.greedy_us"] = self_us("core.greedy");
  m["core.dp_us_t1"] = self_us("core.dp_t1");
  m["core.dp_us_t4"] = self_us("core.dp_t4");
  m["core.dp_work"] = static_cast<double>(solver_totals.dp_work);
  m["core.dp_pruned_cells"] = static_cast<double>(solver_totals.dp_pruned_cells);
  m["core.dp_work_imbalance"] =
      solver_runs > 0 ? imbalance_sum / static_cast<double>(solver_runs) : 1.0;
  m["machine.make_feasible_us"] = self_us("machine.make_feasible");
  m["sim.run_us"] = self_us("sim.run");
  m["sim.attribution_us"] = self_us("sim.attribution");
  m["sim.report_json_us"] = self_us("sim.report_json");
  out.spans_json = spans.ToJson();
  return out;
}

// --- Main ---------------------------------------------------------------------

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      const auto v = pipemap::TryParseInt(value);
      if (!v || *v < 0) return std::nullopt;
      o.seed = static_cast<std::uint64_t>(*v);
    } else if (key == "--seconds") {
      const auto v = pipemap::TryParseDouble(value);
      if (!v || *v <= 0.0 || *v > 600.0) return std::nullopt;
      o.seconds = *v;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      o.trace = value == "1";
    } else if (key == "--server") {
      o.server = value;
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || o.server.empty() || o.work_dir.empty() ||
      FindWorkload(o.workload) == nullptr) {
    return std::nullopt;
  }
  return o;
}

/// A running server and its connections.
struct Live {
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<pipemap::server::ServerClient>> clients;
};

/// Stops `live`'s server if there is one, then starts a fresh one on an
/// empty cache directory, connects and warms it up. Returns the set-up
/// time: spawn to the end of warm-up.
double StartServer(const WorkloadSpec& spec, const Plan& plan,
                   const Options& opt, int index, Live* live) {
  namespace fs = std::filesystem;
  live->clients.clear();
  if (live->server != nullptr) live->server->Stop();
  live->server.reset();
  const fs::path cache_dir =
      fs::path(opt.work_dir) / ("cache-" + std::to_string(index));
  fs::remove_all(cache_dir);
  const Clock::time_point t0 = Clock::now();
  live->server = std::make_unique<ServerProcess>(opt.server, cache_dir.string());
  for (int c = 0; c < spec.connections; ++c) {
    live->clients.push_back(std::make_unique<pipemap::server::ServerClient>(
        "127.0.0.1", live->server->port()));
  }
  WarmUp(spec, plan, opt.seed, *live->clients[0]);
  return Seconds(t0, Clock::now());
}

/// Times the window on `live`'s server, then stops the server.
Window Measure(const WorkloadSpec& spec, const Plan& plan, const Options& opt,
               Live* live) {
  const Counters before = ReadCounters(*live->clients[0]);
  const Jiffies at_start = CpuJiffies();
  Window window =
      RunClosedLoop(spec, plan, opt.seed, opt.seconds, live->clients);
  window.steal_share = StealShare(at_start, CpuJiffies());
  window.server = Delta(before, ReadCounters(*live->clients[0]));
  window.rss_mb = PeakRssMb(live->server->pid());
  live->clients.clear();
  window.clean_exit = live->server->Stop();
  live->server.reset();
  return window;
}

/// End-to-end figures of one whole window.
struct Figures {
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double max_ms = 0.0;
  double slo_attainment = 0.0;
};

Figures WholeWindow(const WorkloadSpec& spec, const Window& w) {
  const std::vector<double>& ms = w.tally.latency_ms;
  const double within = static_cast<double>(std::count_if(
      ms.begin(), ms.end(), [&](double v) { return v <= spec.slo_ms; }));
  Figures f;
  f.throughput_rps = static_cast<double>(w.tally.ok) / w.seconds;
  f.p50_ms = Percentile(ms, 50.0);
  f.tail_ms = Percentile(ms, spec.tail_percentile);
  f.max_ms = Percentile(ms, 100.0);
  f.slo_attainment =
      within / static_cast<double>(std::max<std::uint64_t>(w.tally.attempted, 1));
  return f;
}

int Run(const Options& opt) {
  const WorkloadSpec& spec = *FindWorkload(opt.workload);
  const std::string name = spec.name;
  namespace fs = std::filesystem;
  fs::create_directories(opt.work_dir);

  // Inputs and the oracle's answers, all before any server starts.
  Plan plan;
  if (name == "paper_hit") {
    for (const pipemap::Workload& w : PaperWorkloads()) {
      plan.frames.push_back(MapFrame(ToProblem(w), 1));
    }
  }
  plan.expected = Expected(plan.frames);

  Live live;
  std::vector<double> setup_s;
  for (int s = 0; s < kSetups; ++s) {
    setup_s.push_back(StartServer(spec, plan, opt, s, &live));
  }
  Window window = Measure(spec, plan, opt, &live);

  // dp_cold: the oracle runs after the window, on what was sent.
  std::vector<std::string> sent_frames;
  for (Deferred& d : window.deferred) sent_frames.push_back(std::move(d.frame));
  const std::vector<std::string> sent_expected = Expected(sent_frames);
  for (std::size_t i = 0; i < window.deferred.size(); ++i) {
    const Deferred& d = window.deferred[i];
    Record(spec, Kind::kMiss, d.response, sent_expected[i], d.latency_ms,
           &window.tally);
  }

  const Tally& t = window.tally;
  std::vector<std::string> invalid;
  if (!window.clean_exit) invalid.push_back("server did not drain and exit 0");
  for (const auto& [what, n] : t.shape_violations) {
    invalid.push_back(what + " (" + std::to_string(n) + ")");
  }
  if (name == "dp_cold" && window.server.at("evictions") <= 0) {
    invalid.push_back("dp_cold caused no cache evictions");
  }
  if (name == "dp_cold" && window.server.at("writes") <= 0) {
    invalid.push_back("dp_cold caused no disk spills");
  }

  std::uint64_t failed = 0;
  for (const auto& [kind, n] : t.failures) failed += n;
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(t.attempted, 1));
  const Figures figures = WholeWindow(spec, window);

  pipemap::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(name);
  w.Key("seed").UInt(opt.seed);
  w.Key("seconds").Double(opt.seconds);
  w.Key("trace").Bool(opt.trace);
  w.Key("config").BeginObject();
  w.Key("connections").Int(spec.connections);
  w.Key("tail_percentile").Double(spec.tail_percentile);
  w.Key("slo_ms").Double(spec.slo_ms);
  w.Key("setups").Int(kSetups);
  w.Key("cold_threads").Int(kColdThreads);
  w.EndObject();
  w.Key("valid").Bool(invalid.empty());
  w.Key("invalid_reasons").BeginArray();
  for (const std::string& r : invalid) w.String(r);
  w.EndArray();
  w.Key("attempted").UInt(t.attempted);
  w.Key("failed").UInt(failed);
  w.Key("failures").BeginObject();
  for (const auto& [kind, n] : t.failures) w.Key(kind).UInt(n);
  w.EndObject();
  w.Key("end_to_end").BeginObject();
  w.Key("setup_s").Double(Median(setup_s));
  w.Key("throughput_rps").Double(figures.throughput_rps);
  w.Key("latency_p50_ms").Double(figures.p50_ms);
  w.Key("latency_tail_ms").Double(figures.tail_ms);
  w.Key("error_rate")
      .Double(static_cast<double>(failed) /
              static_cast<double>(std::max<std::uint64_t>(t.attempted, 1)));
  w.Key("slo_attainment").Double(figures.slo_attainment);
  w.Key("server_rss_mb").Double(window.rss_mb);
  w.EndObject();
  w.Key("raw").BeginObject();
  w.Key("setup_s").BeginArray();
  for (const double s : setup_s) w.Double(s);
  w.EndArray();
  w.Key("window").BeginObject();
  w.Key("seconds").Double(window.seconds);
  w.Key("host_steal_share").Double(window.steal_share);
  w.Key("ok").UInt(t.ok);
  w.Key("tail_samples_beyond")
      .Double(std::floor(static_cast<double>(t.attempted) *
                         (1.0 - spec.tail_percentile / 100.0)));
  w.Key("latency_p90_ms").Double(Percentile(t.latency_ms, 90.0));
  w.Key("latency_p99_ms").Double(Percentile(t.latency_ms, 99.0));
  w.Key("latency_p99.9_ms").Double(Percentile(t.latency_ms, 99.9));
  w.Key("latency_max_ms").Double(figures.max_ms);
  w.EndObject();
  w.Key("request_bytes_mean").Double(static_cast<double>(t.bytes_sent) / attempted);
  w.Key("harness_rss_mb").Double(PeakRssMb(::getpid()));
  w.Key("cache_tiers").BeginObject();
  for (const auto& [tier, n] : t.tiers) w.Key(tier.substr(1, tier.size() - 2)).UInt(n);
  w.EndObject();
  w.Key("server").BeginObject();
  for (const auto& [k, v] : window.server) w.Key(k).Double(v);
  w.EndObject();
  w.EndObject();

  if (opt.trace) {
    const fs::path traced_cache = fs::path(opt.work_dir) / "traced-cache";
    fs::remove_all(traced_cache);
    const LayerRun layers =
        TracedReplay(spec, plan, sent_frames, traced_cache.string());
    const Counters& d = window.server;
    const double lookups = d.at("hits") + d.at("misses");
    w.Key("per_layer").BeginObject();
    for (const auto& [k, v] : layers.metrics) w.Key(k).Double(v);
    w.Key("server.request_bytes")
        .Double(static_cast<double>(t.bytes_sent) / attempted);
    w.Key("server.queue_wait_us")
        .Double(d.at("queue_wait_us_count") > 0
                    ? d.at("queue_wait_us_sum") / d.at("queue_wait_us_count")
                    : 0.0);
    w.Key("server.shed").Double(d.at("shed"));
    w.Key("server.rejected").Double(d.at("rejected"));
    w.Key("server.timed_out").Double(d.at("timed_out"));
    w.Key("server.peak_rss_mb").Double(window.rss_mb);
    w.Key("engine.cache_hit_ratio").Double(lookups > 0 ? d.at("hits") / lookups : 0.0);
    w.Key("engine.cache_evictions").Double(d.at("evictions"));
    w.Key("engine.persist_spills").Double(d.at("writes"));
    w.EndObject();
    const std::string spans_path =
        (fs::path(opt.work_dir) / "spans.json").string();
    std::ofstream(spans_path) << layers.spans_json;
    w.Key("spans_file").String(spans_path);
  }
  w.EndObject();
  std::fputs(w.str().c_str(), stdout);
  std::fflush(stdout);
  return invalid.empty() && t.failures.count("mismatch") == 0 ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "perfbench_harness: refusing to measure an unoptimized or "
               "sanitizer build\n");
  return 2;
#endif
  const std::optional<perfbench::Options> opt =
      perfbench::ParseArgs(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload paper_hit|dp_cold "
                 "--seed N --seconds S --trace 0|1 --server PATH "
                 "--work-dir DIR\n");
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return perfbench::Run(*opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
