// Overload-resilience harness (writes BENCH_overload.json).
//
// Drives an in-process PipemapServer through an offered-load ladder that
// deliberately runs past saturation (few workers, a small admission
// queue, cache-bypassing solves so every request costs a real solve) and
// measures what the overload layer buys:
//
//   * each rung runs as a pair — once against a server with adaptive
//     shedding armed (queue-depth watermark) and once against the same
//     server with `overload_enabled = false` (the pre-overload-layer
//     behavior: admit until the queue is full, then reject). The gate
//     rung runs kGatePairs pairs, alternating which side goes first, so
//     the checker can compare medians instead of one noisy sample;
//   * recorded per rung and mode: goodput (ok responses / wall second),
//     shed and queue-full-reject rates, degraded share, and p50/p99 of
//     the *served* responses only — the claim under test is that
//     shedding holds served p99 down (admitted work waits behind a
//     watermark-bounded queue, not a full one) without giving up
//     goodput (workers never idle in either mode).
//
// A separate brownout probe then runs a short storm against a server
// with a deliberately unmeetable SLO (p99 objective far below any real
// solve) and brownout hysteresis armed, demonstrating the full
// degradation ladder: burn -> shed, burn sustained -> brownout, burn
// clears -> admitted solves served greedy-only and flagged
// `degraded: true` until the recovery streak completes.
//
// tools/check_overload.py gates the JSON (median shed/baseline p99 and
// goodput ratios over the deepest rung's pairs, the probe actually
// degraded); exit status here is nonzero only on contract violations —
// malformed responses or transport failures against a healthy server.
//
// Usage: bench_overload [output.json] [rung_seconds]
//        defaults: BENCH_overload.json 1.5
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/mapping_engine.h"
#include "io/serialize.h"
#include "server/client.h"
#include "server/server.h"
#include "support/json_verify.h"
#include "support/json_writer.h"
#include "support/parse.h"
#include "workloads/synthetic.h"

namespace pipemap::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kWorkers = 2;
// Deep enough that the watermark-bounded backlog (watermark * capacity
// solves) outlasts a refused client's backoff — shedding must bound
// latency without ever idling a worker.
constexpr std::size_t kQueueCapacity = 32;
constexpr int kVariants = 32;
// Shed/baseline pairs at the gate rung. One 1.5 s pair's goodput ratio
// swings by ~0.4 between runs of the same code; the median of five is
// what the checker gates.
constexpr int kGatePairs = 5;

struct ProblemMix {
  std::vector<std::string> chains;
  std::vector<std::string> machines;
};

/// Distinct problems, cycled per request with the cache bypassed, so
/// every admitted request costs a genuine portfolio solve.
ProblemMix MakeMix() {
  ProblemMix mix;
  for (int v = 0; v < kVariants; ++v) {
    workloads::SyntheticSpec spec;
    spec.num_tasks = 6 + (v % 4);
    spec.machine_procs = 32;
    spec.mean_work_s = 0.03 * (1 + v % 5);
    const Workload workload =
        workloads::MakeSynthetic(spec, static_cast<std::uint64_t>(v + 17));
    mix.chains.push_back(
        SerializeChain(workload.chain, workload.machine.total_procs()));
    mix.machines.push_back(SerializeMachine(workload.machine));
  }
  return mix;
}

struct RungMetrics {
  std::uint64_t offered = 0;    ///< requests sent
  std::uint64_t ok = 0;         ///< "ok": true responses
  std::uint64_t shed = 0;       ///< code "overloaded"
  std::uint64_t rejected = 0;   ///< code "rejected" (queue full)
  std::uint64_t degraded = 0;   ///< ok responses flagged degraded
  std::uint64_t other_errors = 0;
  std::uint64_t malformed = 0;
  std::uint64_t transport_errors = 0;
  double elapsed_s = 0.0;
  double goodput_rps = 0.0;  ///< ok / elapsed
  double p50_ms = 0.0;       ///< served (ok) responses only
  double p99_ms = 0.0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo);
}

/// `clients` closed-loop connections hammer the server for `seconds`.
RungMetrics RunRung(int clients, double seconds, int port,
                    const ProblemMix& mix) {
  RungMetrics rung;
  std::mutex mu;  // guards rung + the latency pool
  std::vector<double> ok_latencies;

  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      RungMetrics local;
      std::vector<double> latencies;
      int variant = c % kVariants;
      bool backed_off = false;
      try {
        server::ServerClient client("127.0.0.1", port);
        while (Clock::now() < stop) {
          server::ServerRequest request;
          request.op = "map";
          request.algorithm = "auto";
          request.use_cache = false;  // every admitted request solves
          request.chain_text = mix.chains[variant];
          request.machine_text = mix.machines[variant];
          request.has_chain = true;
          request.has_machine = true;
          variant = (variant + 1) % kVariants;
          ++local.offered;
          const Clock::time_point t0 = Clock::now();
          const std::string response = client.Call(request);
          const double latency_s =
              std::chrono::duration<double>(Clock::now() - t0).count();
          if (!IsValidJson(response)) {
            ++local.malformed;
          } else if (response.find("\"ok\": true") != std::string::npos) {
            ++local.ok;
            latencies.push_back(latency_s);
            if (response.find("\"degraded\": true") != std::string::npos) {
              ++local.degraded;
            }
          } else if (response.find("\"code\": \"overloaded\"") !=
                     std::string::npos) {
            ++local.shed;
            backed_off = true;
          } else if (response.find("\"code\": \"rejected\"") !=
                     std::string::npos) {
            ++local.rejected;
            backed_off = true;
          } else {
            ++local.other_errors;
          }
          if (backed_off) {
            // A compliant client backs off after a refusal (the shed
            // response even tells it to). A fixed small backoff — the
            // same in both modes — keeps the comparison about admission
            // policy, not about refused clients busy-spinning the
            // connection threads into the workers' CPU time.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(8 + (c % 8)));
            backed_off = false;
          }
        }
      } catch (const std::exception&) {
        ++local.transport_errors;
      }
      std::lock_guard<std::mutex> lock(mu);
      rung.offered += local.offered;
      rung.ok += local.ok;
      rung.shed += local.shed;
      rung.rejected += local.rejected;
      rung.degraded += local.degraded;
      rung.other_errors += local.other_errors;
      rung.malformed += local.malformed;
      rung.transport_errors += local.transport_errors;
      ok_latencies.insert(ok_latencies.end(), latencies.begin(),
                          latencies.end());
    });
  }
  for (std::thread& t : threads) t.join();
  rung.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  rung.goodput_rps = rung.elapsed_s > 0.0
                         ? static_cast<double>(rung.ok) / rung.elapsed_s
                         : 0.0;
  std::sort(ok_latencies.begin(), ok_latencies.end());
  rung.p50_ms = Percentile(ok_latencies, 0.50) * 1e3;
  rung.p99_ms = Percentile(ok_latencies, 0.99) * 1e3;
  return rung;
}

void WriteMetrics(JsonWriter& w, const RungMetrics& m) {
  w.BeginObject();
  w.Key("offered").UInt(m.offered);
  w.Key("ok").UInt(m.ok);
  w.Key("shed").UInt(m.shed);
  w.Key("rejected").UInt(m.rejected);
  w.Key("degraded").UInt(m.degraded);
  w.Key("other_errors").UInt(m.other_errors);
  w.Key("malformed").UInt(m.malformed);
  w.Key("transport_errors").UInt(m.transport_errors);
  w.Key("elapsed_s").Double(m.elapsed_s);
  w.Key("goodput_rps").Double(m.goodput_rps);
  w.Key("p50_ms").Double(m.p50_ms);
  w.Key("p99_ms").Double(m.p99_ms);
  w.EndObject();
}

/// One shed/baseline comparison at one rung; `shed_first` records which
/// side ran first.
struct RungPair {
  bool shed_first = true;
  RungMetrics shed;
  RungMetrics base;
};

bool ContractViolated(const RungMetrics& m) {
  return m.malformed > 0 || m.transport_errors > 0 || m.other_errors > 0;
}

server::ServerConfig BaseConfig(MappingEngine* engine) {
  server::ServerConfig config;
  config.engine = engine;
  config.num_workers = kWorkers;
  config.queue_capacity = kQueueCapacity;
  return config;
}

int Run(const std::string& out_path, double rung_seconds) {
  const ProblemMix mix = MakeMix();
  // The deepest rung offers twice the baseline queue's worth of
  // closed-loop clients, so BOTH modes are refusing work there (queue
  // full vs watermark) and the goodput comparison is symmetric — that is
  // the rung tools/check_overload.py gates.
  const std::vector<int> ladder = {4, 16, 64};
  bool contract_violated = false;

  // Shedding server: queue-depth watermark only (no SLO objectives), so
  // the ladder isolates what admission shedding does to served latency.
  MappingEngine shed_engine;
  server::ServerConfig shed_config = BaseConfig(&shed_engine);
  shed_config.shed_watermark = 0.5;
  server::PipemapServer shed_server(shed_config);
  shed_server.Start();

  // Baseline: the identical server with the overload layer off.
  MappingEngine base_engine;
  server::ServerConfig base_config = BaseConfig(&base_engine);
  base_config.overload_enabled = false;
  server::PipemapServer base_server(base_config);
  base_server.Start();

  std::printf("bench_overload: %d workers, queue %zu, %.1fs per rung\n",
              kWorkers, kQueueCapacity, rung_seconds);
  std::vector<std::vector<RungPair>> rungs;  // per ladder rung
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const int clients = ladder[i];
    const int pairs = i + 1 == ladder.size() ? kGatePairs : 1;
    rungs.emplace_back();
    for (int k = 0; k < pairs; ++k) {
      RungPair pair;
      pair.shed_first = k % 2 == 0;
      if (pair.shed_first) {
        pair.shed = RunRung(clients, rung_seconds, shed_server.port(), mix);
        pair.base = RunRung(clients, rung_seconds, base_server.port(), mix);
      } else {
        pair.base = RunRung(clients, rung_seconds, base_server.port(), mix);
        pair.shed = RunRung(clients, rung_seconds, shed_server.port(), mix);
      }
      contract_violated = contract_violated || ContractViolated(pair.shed) ||
                          ContractViolated(pair.base);
      std::printf(
          "  clients %2d: shed  %6.1f ok/s  p99 %8.2f ms  shed %5llu\n"
          "              plain %6.1f ok/s  p99 %8.2f ms  reject %5llu%s\n",
          clients, pair.shed.goodput_rps, pair.shed.p99_ms,
          static_cast<unsigned long long>(pair.shed.shed),
          pair.base.goodput_rps, pair.base.p99_ms,
          static_cast<unsigned long long>(pair.base.rejected),
          pair.shed_first ? "" : "  (plain ran first)");
      rungs.back().push_back(pair);
    }
  }
  shed_server.Drain();
  base_server.Drain();

  // Brownout probe: an unmeetable p99 objective forces the burn signal;
  // sustained burn engages brownout; when shedding empties the SLO
  // window the burn clears and admitted solves are served degraded
  // (greedy-only, short deadline) until the recovery streak completes.
  MappingEngine probe_engine;
  server::ServerConfig probe_config = BaseConfig(&probe_engine);
  probe_config.shed_watermark = 0.5;
  probe_config.slo_p99_ms = 0.1;
  probe_config.slo_window_s = 1;
  probe_config.brownout_after_s = 0.2;
  probe_config.recover_after_s = 2.0;
  probe_config.degraded_deadline_s = 0.02;
  server::PipemapServer probe_server(probe_config);
  probe_server.Start();
  const RungMetrics probe = RunRung(8, 4.0, probe_server.port(), mix);
  contract_violated = contract_violated || ContractViolated(probe);
  const server::OverloadState probe_overload = probe_server.overload_state();
  probe_server.Drain();
  std::printf("  brownout probe: ok %llu  shed %llu  degraded %llu  "
              "entries %llu\n",
              static_cast<unsigned long long>(probe.ok),
              static_cast<unsigned long long>(probe.shed),
              static_cast<unsigned long long>(probe.degraded),
              static_cast<unsigned long long>(probe_overload.brownout_entries));

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("overload");
  w.Key("workers").Int(kWorkers);
  w.Key("queue_capacity").UInt(kQueueCapacity);
  w.Key("rung_seconds").Double(rung_seconds);
  w.Key("shed_watermark").Double(shed_config.shed_watermark);
  w.Key("ladder").BeginArray();
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    w.BeginObject();
    w.Key("clients").Int(ladder[i]);
    w.Key("pairs").BeginArray();
    for (const RungPair& pair : rungs[i]) {
      w.BeginObject();
      w.Key("shed_first").Bool(pair.shed_first);
      w.Key("shedding");
      WriteMetrics(w, pair.shed);
      w.Key("baseline");
      WriteMetrics(w, pair.base);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("brownout_probe");
  WriteMetrics(w, probe);
  w.Key("brownout_entries").UInt(probe_overload.brownout_entries);
  w.Key("contract_violated").Bool(contract_violated);
  w.EndObject();

  std::ofstream out(out_path);
  out << w.str() << "\n";
  std::printf("bench_overload: wrote %s\n", out_path.c_str());
  return contract_violated ? 1 : 0;
}

}  // namespace
}  // namespace pipemap::bench

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_overload.json";
  double rung_seconds = 1.5;
  if (argc > 2) {
    const std::optional<double> parsed = pipemap::TryParseDouble(argv[2]);
    if (!parsed || *parsed <= 0.0) {
      std::fprintf(stderr, "bench_overload: bad rung_seconds '%s'\n", argv[2]);
      return 2;
    }
    rung_seconds = *parsed;
  }
  return pipemap::bench::Run(out_path, rung_seconds);
}
