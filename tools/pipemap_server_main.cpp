// pipemap_server: the mapping-as-a-service daemon.
//
// Binds the TCP listener (src/server/server.h), prints the bound
// address on stdout (machine-parsable, flushed — CI and the tests read
// the port from it when binding port 0), then blocks until SIGTERM or
// SIGINT. Signals are observed via the self-pipe trick so the handler
// stays async-signal-safe; the main thread then runs the graceful drain:
// admitted solves finish (bounded by their own deadlines), new requests
// get clean `draining` errors, and the process exits 0 with a final
// counters document on stdout.
//
// Observability flags (DESIGN.md §9): --access-log writes the structured
// per-request JSONL log, --trace records server/engine spans and dumps
// Chrome trace JSON at drain, and --slo-* configure the rolling-window
// objectives whose burn state lands in `stats`, the `metrics` op, and
// the final drain document.
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "engine/mapping_engine.h"
#include "server/server.h"
#include "support/chaos.h"
#include "support/error.h"
#include "support/json_writer.h"
#include "support/metrics.h"
#include "support/parse.h"
#include "support/tracer.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  const char byte = 1;
  // Best-effort: a full pipe already has a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: pipemap_server [--host ADDR] [--port N]\n"
      "                      [--workers N] [--queue N]\n"
      "                      [--cache-dir DIR] [--cache-dir-max-bytes N]\n"
      "                      [--access-log PATH] [--access-log-max-bytes N]\n"
      "                      [--trace PATH]\n"
      "                      [--slo-p99-ms X] [--slo-error-rate X]\n"
      "                      [--slo-window-s N]\n"
      "                      [--no-overload] [--shed-watermark X]\n"
      "                      [--brownout-after-s X] [--recover-after-s X]\n"
      "                      [--degraded-deadline-s X]\n"
      "                      [--idle-timeout-s X]\n"
      "                      [--solver-breaker-failures N]\n"
      "                      [--solver-breaker-cooldown-s X]\n"
      "                      [--chaos SPEC]\n"
      "\n"
      "Runs the mapping daemon until SIGTERM/SIGINT, then drains:\n"
      "in-flight solves finish or time out, new requests are\n"
      "refused with a clean error, and the process exits 0.\n"
      "--port 0 (default) binds an ephemeral port; the bound\n"
      "address is printed on stdout as 'listening HOST PORT'.\n"
      "--access-log appends one JSONL line per request (trace_id, op,\n"
      "bytes, queue wait, solve time, status); --trace dumps Chrome\n"
      "trace JSON on drain; --slo-* set the rolling-window objectives\n"
      "surfaced by the stats and metrics ops.\n"
      "--cache-dir persists solved mappings (one checksummed file per\n"
      "fingerprint): a daemon restarted onto the same directory serves\n"
      "previously solved requests as cache hits without re-solving.\n"
      "--cache-dir-max-bytes bounds the directory: crossing it evicts\n"
      "oldest entries. The directory is advisorily locked; a second\n"
      "daemon on the same directory falls back to read-only probing.\n"
      "Overload resilience (DESIGN.md §12): when the SLO window burns\n"
      "or the queue passes --shed-watermark of capacity, new solves are\n"
      "refused fast with an `overloaded` error and a retry_after_ms\n"
      "hint; burn sustained past --brownout-after-s downgrades solves\n"
      "to greedy-only under --degraded-deadline-s (responses carry\n"
      "degraded: true) until the burn clears for --recover-after-s.\n"
      "--idle-timeout-s reaps connections whose peer stalls mid-frame.\n"
      "--chaos arms the deterministic fault injector (seed=N,\n"
      "seam=prob[:Nms] entries; seams: read_delay, read_trunc,\n"
      "conn_drop, solver_slow, persist_write_fail, persist_read_fail).\n"
      "The PIPEMAP_CHAOS environment variable is an alternative spec\n"
      "source; --chaos wins when both are set.\n");
  return 2;
}

int CheckedFlag(const char* name, const std::string& value) {
  const std::optional<int> v = pipemap::TryParseInt(value);
  if (!v) {
    std::fprintf(stderr, "pipemap_server: %s needs an integer, got '%s'\n",
                 name, value.c_str());
    std::exit(2);
  }
  return *v;
}

double CheckedDoubleFlag(const char* name, const std::string& value) {
  const std::optional<double> v = pipemap::TryParseDouble(value);
  if (!v) {
    std::fprintf(stderr, "pipemap_server: %s needs a number, got '%s'\n",
                 name, value.c_str());
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  pipemap::server::ServerConfig config;
  pipemap::EngineConfig engine_config;
  std::string trace_path;
  std::string chaos_spec;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "pipemap_server: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--host") {
      config.host = value();
    } else if (arg == "--port") {
      config.port = CheckedFlag("--port", value());
    } else if (arg == "--workers") {
      config.num_workers = CheckedFlag("--workers", value());
    } else if (arg == "--queue") {
      config.queue_capacity =
          static_cast<std::size_t>(CheckedFlag("--queue", value()));
    } else if (arg == "--cache-dir") {
      engine_config.cache_dir = value();
    } else if (arg == "--cache-dir-max-bytes") {
      engine_config.cache_dir_max_bytes = static_cast<std::uint64_t>(
          CheckedFlag("--cache-dir-max-bytes", value()));
    } else if (arg == "--no-overload") {
      config.overload_enabled = false;
    } else if (arg == "--shed-watermark") {
      config.shed_watermark = CheckedDoubleFlag("--shed-watermark", value());
    } else if (arg == "--brownout-after-s") {
      config.brownout_after_s =
          CheckedDoubleFlag("--brownout-after-s", value());
    } else if (arg == "--recover-after-s") {
      config.recover_after_s = CheckedDoubleFlag("--recover-after-s", value());
    } else if (arg == "--degraded-deadline-s") {
      config.degraded_deadline_s =
          CheckedDoubleFlag("--degraded-deadline-s", value());
    } else if (arg == "--idle-timeout-s") {
      config.idle_timeout_s = CheckedDoubleFlag("--idle-timeout-s", value());
    } else if (arg == "--solver-breaker-failures") {
      config.solver_breaker_failures =
          CheckedFlag("--solver-breaker-failures", value());
    } else if (arg == "--solver-breaker-cooldown-s") {
      config.solver_breaker_cooldown_s =
          CheckedDoubleFlag("--solver-breaker-cooldown-s", value());
    } else if (arg == "--chaos") {
      chaos_spec = value();
    } else if (arg == "--access-log") {
      config.access_log_path = value();
    } else if (arg == "--access-log-max-bytes") {
      config.access_log_max_bytes = static_cast<std::size_t>(
          CheckedFlag("--access-log-max-bytes", value()));
    } else if (arg == "--trace") {
      trace_path = value();
    } else if (arg == "--slo-p99-ms") {
      config.slo_p99_ms = CheckedDoubleFlag("--slo-p99-ms", value());
    } else if (arg == "--slo-error-rate") {
      config.slo_max_error_rate =
          CheckedDoubleFlag("--slo-error-rate", value());
    } else if (arg == "--slo-window-s") {
      config.slo_window_s = CheckedFlag("--slo-window-s", value());
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "pipemap_server: unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipemap_server: pipe");
    return 1;
  }
  struct sigaction action{};
  action.sa_handler = OnSignal;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  try {
    if (!chaos_spec.empty()) {
      pipemap::ChaosInjector::Global().Configure(
          pipemap::ParseChaosSpec(chaos_spec));
      std::fprintf(stderr, "pipemap_server: chaos armed: %s\n",
                   chaos_spec.c_str());
    } else if (const std::optional<std::string> env =
                   pipemap::ConfigureChaosFromEnv()) {
      std::fprintf(stderr, "pipemap_server: chaos armed from PIPEMAP_CHAOS: %s\n",
                   env->c_str());
    }
  } catch (const std::exception& e) {
    // A mistyped storm must fail loudly, not silently run fault-free.
    std::fprintf(stderr, "pipemap_server: %s\n", e.what());
    return 2;
  }

  const pipemap::ScopedMetricsEnable metrics_on(true);
  if (!trace_path.empty()) pipemap::Tracer::Global().Enable(true);
  // Declared before the server so it outlives the server's final drain,
  // which flushes the engine's pending disk spills.
  pipemap::MappingEngine engine(engine_config);
  config.engine = &engine;
  pipemap::server::PipemapServer server(config);
  try {
    server.Start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipemap_server: %s\n", e.what());
    return 1;
  }
  std::printf("listening %s %d\n", config.host.c_str(), server.port());
  std::fflush(stdout);

  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "pipemap_server: signal received, draining\n");
  server.Drain();

  if (!trace_path.empty()) {
    if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
      const std::string json = pipemap::Tracer::Global().ToChromeJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "pipemap_server: cannot write trace to %s\n",
                   trace_path.c_str());
    }
  }

  const pipemap::server::ServerCounters counters = server.counters();
  const pipemap::server::SloState slo = server.slo();
  const pipemap::AccessLogger::Stats log_stats = server.access_log_stats();
  pipemap::JsonWriter w;
  w.BeginObject();
  w.Key("drained").Bool(true);
  w.Key("connections").UInt(counters.connections);
  w.Key("accepted").UInt(counters.accepted);
  w.Key("rejected").UInt(counters.rejected);
  w.Key("completed").UInt(counters.completed);
  w.Key("timed_out").UInt(counters.timed_out);
  w.Key("parse_errors").UInt(counters.parse_errors);
  w.Key("shed").UInt(counters.shed);
  w.Key("degraded").UInt(counters.degraded);
  w.Key("idle_timeouts").UInt(counters.idle_timeouts);
  w.Key("breaker_fast_fails").UInt(counters.breaker_fast_fails);
  const pipemap::server::OverloadState overload = server.overload_state();
  w.Key("overload").BeginObject();
  w.Key("degraded").Bool(overload.degraded);
  w.Key("brownout_entries").UInt(overload.brownout_entries);
  w.Key("brownout_recoveries").UInt(overload.brownout_recoveries);
  w.EndObject();
  pipemap::ChaosInjector& chaos = pipemap::ChaosInjector::Global();
  if (chaos.enabled()) {
    const pipemap::ChaosStats chaos_stats = chaos.stats();
    w.Key("chaos").BeginObject();
    for (int s = 0; s < pipemap::kChaosSeamCount; ++s) {
      w.Key(pipemap::ChaosSeamName(static_cast<pipemap::ChaosSeam>(s)))
          .UInt(chaos_stats.injected[s]);
    }
    w.EndObject();
  }
  w.Key("slo").BeginObject();
  w.Key("window_s").Int(slo.window_s);
  w.Key("requests").UInt(slo.requests);
  w.Key("errors").UInt(slo.errors);
  w.Key("error_rate").Double(slo.error_rate);
  w.Key("p50_ms").Double(slo.p50_ms);
  w.Key("p99_ms").Double(slo.p99_ms);
  w.Key("p99_burn_ratio").Double(slo.p99_burn_ratio);
  w.Key("error_burn_ratio").Double(slo.error_burn_ratio);
  w.Key("burning").Bool(slo.burning);
  w.EndObject();
  w.Key("access_log").BeginObject();
  w.Key("lines_written").UInt(log_stats.lines_written);
  w.Key("lines_dropped").UInt(log_stats.lines_dropped);
  w.Key("rotations").UInt(log_stats.rotations);
  w.Key("bytes_written").UInt(log_stats.bytes_written);
  w.EndObject();
  w.EndObject();
  std::fputs(w.str().c_str(), stdout);
  return 0;
}
