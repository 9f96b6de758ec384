// The server under PIPEMAP_NO_OBSERVABILITY: this file is compiled only
// into noobs_tests (ctest entry server_noobs), with every library source
// rebuilt under the define. It proves the observability tentpole is genuinely
// free to compile out — the `metrics` op still answers with a valid
// (empty-series) exposition, trace-id echo still works (identity is
// protocol surface, not instrumentation), the SLO window and access log
// are inert, and solve results are byte-identical to a direct engine
// solve with no instrumentation in the path.
#include "server/server.h"

#include <memory>
#include <string>

#include "core/evaluator.h"
#include "engine/mapping_engine.h"
#include "gtest/gtest.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "server/client.h"
#include "support/json_verify.h"
#include "support/json_writer.h"
#include "support/trace_context.h"
#include "workloads/synthetic.h"
#include "../temp_dir.h"

namespace pipemap::server {
namespace {

struct Problem {
  std::string chain_text;
  std::string machine_text;
};

Problem MakeProblem(int num_tasks, int procs, std::uint64_t seed = 1) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = num_tasks;
  spec.machine_procs = procs;
  const Workload workload = workloads::MakeSynthetic(spec, seed);
  return Problem{
      SerializeChain(workload.chain, workload.machine.total_procs()),
      SerializeMachine(workload.machine)};
}

ServerRequest MapRequestFor(const Problem& problem) {
  ServerRequest request;
  request.op = "map";
  request.algorithm = "auto";
  request.chain_text = problem.chain_text;
  request.machine_text = problem.machine_text;
  request.has_chain = true;
  request.has_machine = true;
  return request;
}

std::string CheckedCall(ServerClient& client, const ServerRequest& request) {
  const std::string response = client.Call(request);
  std::string error;
  EXPECT_TRUE(IsValidJson(response, &error)) << error << "\n" << response;
  return response;
}

bool IsOk(const std::string& response) {
  return response.find("\"ok\": true") != std::string::npos;
}

struct TestServer {
  explicit TestServer(ServerConfig config = {}) {
    config.engine = &engine;
    server = std::make_unique<PipemapServer>(std::move(config));
    server->Start();
  }
  ServerClient Connect() { return ServerClient("127.0.0.1", server->port()); }

  MappingEngine engine;
  std::unique_ptr<PipemapServer> server;
};

TEST(ServerNoobsTest, MetricsOpServesAValidEmptySeriesExposition) {
  TestServer ts;
  ServerClient client = ts.Connect();
  // Generate some traffic first: with the instrumentation compiled out,
  // nothing may ever reach the registry.
  CheckedCall(client, MapRequestFor(MakeProblem(4, 8)));

  ServerRequest metrics;
  metrics.op = "metrics";
  const std::string response = CheckedCall(client, metrics);
  EXPECT_TRUE(IsOk(response));
  EXPECT_NE(response.find("\"content_type\": \"text/plain; version=0.0.4\""),
            std::string::npos)
      << response;
  // An empty registry renders to the empty string — a valid zero-series
  // Prometheus text exposition.
  EXPECT_NE(response.find("\"exposition\": \"\""), std::string::npos)
      << response;
}

TEST(ServerNoobsTest, TraceIdEchoSurvivesWithoutObservability) {
  TestServer ts;
  ServerClient client = ts.Connect();
  const std::uint64_t id = 0x00c0ffee12345678ull;
  ServerRequest ping;
  ping.op = "ping";
  ping.trace_id = id;
  const std::string response = CheckedCall(client, ping);
  EXPECT_NE(response.find("\"trace_id\": \"" + FormatTraceId(id) + "\""),
            std::string::npos)
      << response;
}

TEST(ServerNoobsTest, SloWindowAndAccessLogAreInert) {
  ServerConfig config;
  config.slo_p99_ms = 0.0001;  // would burn instantly if tracked
  const testing::ScopedTempDir scratch;
  config.access_log_path = scratch.File("pipemap_noobs_never_created.jsonl");
  TestServer ts(std::move(config));
  ServerClient client = ts.Connect();
  ServerRequest ping;
  ping.op = "ping";
  CheckedCall(client, ping);
  CheckedCall(client, ping);

  // Nothing was recorded: the window is empty and the log never opened.
  const SloState state = ts.server->slo();
  EXPECT_EQ(state.requests, 0u);
  EXPECT_FALSE(state.burning);
  EXPECT_EQ(ts.server->access_log_stats().lines_written, 0u);

  ServerRequest stats;
  stats.op = "stats";
  const std::string response = CheckedCall(client, stats);
  EXPECT_NE(response.find("\"enabled\": false"), std::string::npos)
      << response;
}

TEST(ServerNoobsTest, SolveIsByteIdenticalToADirectEngineSolve) {
  const Problem problem = MakeProblem(4, 8);
  TestServer ts;
  ServerClient client = ts.Connect();
  ServerRequest request = MapRequestFor(problem);
  request.trace_id = GenerateTraceId();
  const std::string response = CheckedCall(client, request);
  ASSERT_TRUE(IsOk(response));

  // Replicate the handler's solve on a fresh engine with no server in the
  // path. The deterministic solver must produce the same mapping and
  // objective, rendered byte-for-byte the way the response renders them.
  const TaskChain chain = ParseChain(problem.chain_text);
  const MachineConfig machine = ParseMachine(problem.machine_text);
  MapRequest mr;
  mr.chain = &chain;
  mr.machine = machine;
  mr.total_procs = machine.total_procs();
  mr.options.num_threads = request.threads;
  mr.use_cache = request.use_cache;
  mr.solver = SolverPolicy::kAuto;
  mr.objective = MapObjective::kThroughput;

  MappingEngine direct_engine;
  const MapResponse direct = direct_engine.Map(mr);
  const Evaluator eval(chain, mr.total_procs, machine.node_memory_bytes,
                       request.threads);
  const Mapping mapping =
      FeasibilityChecker(machine).MakeFeasible(direct.mapping, eval);

  std::string mapping_fragment = "\"mapping\": ";
  JsonWriter::AppendEscaped(mapping_fragment, SerializeMapping(mapping));
  EXPECT_NE(response.find(mapping_fragment), std::string::npos) << response;

  std::string objective_fragment = "\"objective_value\": ";
  JsonWriter::AppendDouble(objective_fragment, direct.objective_value);
  EXPECT_NE(response.find(objective_fragment), std::string::npos) << response;

  std::string solver_fragment = "\"solver\": ";
  JsonWriter::AppendEscaped(solver_fragment, direct.solver);
  EXPECT_NE(response.find(solver_fragment), std::string::npos) << response;
}

}  // namespace
}  // namespace pipemap::server
