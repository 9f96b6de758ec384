#include "requests.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/dp_mapper.h"
#include "core/evaluator.h"
#include "core/greedy_mapper.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "server/protocol.h"
#include "sim/attribution.h"
#include "sim/pipeline_sim.h"
#include "sim/run_report.h"
#include "support/json_writer.h"
#include "workloads/fft_hist.h"
#include "workloads/radar.h"
#include "workloads/stereo.h"
#include "workloads/synthetic.h"

namespace perfbench {

using pipemap::CommMode;
using pipemap::MappingEngine;
using pipemap::TaskChain;
using pipemap::Workload;

std::vector<Workload> PaperWorkloads() {
  namespace wl = pipemap::workloads;
  std::vector<Workload> out;
  out.push_back(wl::MakeFftHist(256, CommMode::kMessage));
  out.push_back(wl::MakeFftHist(256, CommMode::kSystolic));
  out.push_back(wl::MakeFftHist(512, CommMode::kMessage));
  out.push_back(wl::MakeFftHist(512, CommMode::kSystolic));
  out.push_back(wl::MakeRadar(CommMode::kSystolic));
  out.push_back(wl::MakeStereo(CommMode::kSystolic));
  return out;
}

Problem ToProblem(const Workload& workload) {
  const int procs = workload.machine.total_procs();
  return Problem{pipemap::SerializeChain(workload.chain, procs),
                 pipemap::SerializeMachine(workload.machine), procs};
}

Problem SyntheticProblem(std::uint64_t seed, int index) {
  constexpr int kProcs = 64;
  pipemap::workloads::SyntheticSpec spec;
  spec.num_tasks = 8 + index % 5;
  spec.machine_procs = kProcs;
  // MakeSynthetic lays 64 nodes out as a full 8 x 8 grid, the paper's
  // iWarp array.
  const Workload w = pipemap::workloads::MakeSynthetic(spec, seed);
  return Problem{pipemap::SerializeChain(w.chain, kProcs),
                 pipemap::SerializeMachine(w.machine), kProcs};
}

namespace {

pipemap::server::ServerRequest BaseRequest(const Problem& problem) {
  pipemap::server::ServerRequest r;
  r.procs = problem.procs;
  r.chain_text = problem.chain_text;
  r.machine_text = problem.machine_text;
  r.has_chain = true;
  r.has_machine = true;
  return r;
}

/// `"key": value` as JsonWriter renders it at depth one of an object,
/// which is where the server's responses carry the mapping and report.
std::string RenderedValue(const char* key, const std::string& raw_json,
                          const std::string& string_value) {
  pipemap::JsonWriter w;
  w.BeginObject();
  if (raw_json.empty()) {
    w.Key(key).String(string_value);
  } else {
    w.Key(key).Raw(raw_json);
  }
  w.EndObject();
  const std::string out = w.str();  // {\n  "key": value\n}\n
  const std::size_t begin = out.find('"');
  const std::size_t end = out.find_last_not_of(" \n", out.rfind('}') - 1);
  return out.substr(begin, end + 1 - begin);
}

}  // namespace

std::string MapFrame(const Problem& problem, int threads) {
  pipemap::server::ServerRequest r = BaseRequest(problem);
  r.op = "map";
  r.threads = threads;
  return pipemap::server::SerializeServerRequest(r);
}

std::string Replay(MappingEngine& engine, const std::string& payload,
                   bool use_cache, SpanRecorder* spans,
                   std::uint64_t request_id) {
  std::string report_json;
  std::string mapping_text;
  pipemap::MapRequest mr;
  {
    ScopedSpan request_span(spans, "request", request_id);
    pipemap::server::ServerRequest request;
    {
      ScopedSpan s(spans, "server.request_decode", request_id);
      request = pipemap::server::ParseServerRequest(payload);
    }
    std::unique_ptr<TaskChain> chain;
    pipemap::MachineConfig machine;
    {
      ScopedSpan s(spans, "io.parse_chain", request_id);
      chain = std::make_unique<TaskChain>(
          pipemap::ParseChain(request.chain_text));
    }
    {
      ScopedSpan s(spans, "io.parse_machine", request_id);
      machine = pipemap::ParseMachine(request.machine_text);
    }
    mr.chain = chain.get();
    mr.machine = machine;
    mr.total_procs =
        request.procs > 0 ? request.procs : machine.total_procs();
    mr.options.num_threads = request.threads;
    mr.use_cache = use_cache;
    mr.objective = pipemap::MapObjective::kThroughput;
    mr.solver = pipemap::SolverPolicy::kAuto;

    pipemap::MapResponse response;
    {
      ScopedSpan s(spans, "engine.map", request_id);
      response = engine.Map(mr);
      s.Rename(!response.cache_hit                ? "engine.map_miss"
               : response.cache_tier == "disk" ? "engine.persist_load"
                                               : "engine.map_hit");
    }

    std::unique_ptr<pipemap::Evaluator> eval;
    {
      ScopedSpan s(spans, "core.evaluator_build", request_id);
      eval = std::make_unique<pipemap::Evaluator>(
          *chain, mr.total_procs, machine.node_memory_bytes, request.threads);
    }
    pipemap::Mapping mapping;
    {
      ScopedSpan s(spans, "machine.make_feasible", request_id);
      mapping = pipemap::FeasibilityChecker(machine).MakeFeasible(
          response.mapping, *eval);
    }
    if (request.op == "map") {
      ScopedSpan s(spans, "io.serialize_mapping", request_id);
      mapping_text = pipemap::SerializeMapping(mapping);
    } else {
      // Mirrors the server's BuildSimOptions for report requests.
      pipemap::SimOptions options;
      options.num_datasets = request.datasets;
      options.warmup = options.num_datasets / 4;
      options.noise.systematic_stddev = request.noise;
      options.noise.jitter_stddev = request.noise / 3.0;
      options.noise.seed = static_cast<std::uint64_t>(request.seed);
      pipemap::SimResult result;
      {
        ScopedSpan s(spans, "sim.run", request_id);
        result = pipemap::PipelineSimulator(*chain).Run(mapping, options);
      }
      pipemap::BottleneckAttribution attribution;
      {
        ScopedSpan s(spans, "sim.attribution", request_id);
        attribution = pipemap::AttributeBottleneck(*eval, mapping, result,
                                                   options.num_datasets);
      }
      ScopedSpan s(spans, "sim.report_json", request_id);
      pipemap::RunReportOptions report_options;
      report_options.num_datasets = options.num_datasets;
      report_json = pipemap::BuildRunReportJson(*eval, mapping, result,
                                                attribution, report_options);
    }
    if (spans != nullptr) {
      // Outside the request span: the engine computes the fingerprint
      // inside Map; this second call only times it on its own.
      request_span.Close();
      ScopedSpan s(spans, "engine.fingerprint", request_id);
      engine.Fingerprint(mr);
    }
  }
  return report_json.empty() ? RenderedValue("mapping", "", mapping_text)
                             : RenderedValue("report", report_json, "");
}

SolverCounts TimeSolvers(const std::string& payload, SpanRecorder* spans,
                         std::uint64_t request_id) {
  const pipemap::server::ServerRequest request =
      pipemap::server::ParseServerRequest(payload);
  const TaskChain chain = pipemap::ParseChain(request.chain_text);
  const pipemap::MachineConfig machine =
      pipemap::ParseMachine(request.machine_text);
  const int procs = request.procs > 0 ? request.procs : machine.total_procs();
  const pipemap::Evaluator eval(chain, procs, machine.node_memory_bytes,
                                request.threads);
  pipemap::MapperOptions options;
  options.proc_feasible =
      pipemap::FeasibilityChecker(machine).ProcCountPredicate();

  pipemap::GreedyOptions greedy;
  greedy.base = options;
  {
    ScopedSpan s(spans, "core.greedy", request_id);
    pipemap::GreedyMapper(greedy).Map(eval, procs);
  }
  options.num_threads = 1;
  {
    ScopedSpan s(spans, "core.dp_t1", request_id);
    pipemap::DpMapper(options).Map(eval, procs);
  }
  options.num_threads = 4;
  pipemap::MapResult dp;
  {
    ScopedSpan s(spans, "core.dp_t4", request_id);
    dp = pipemap::DpMapper(options).Map(eval, procs);
  }
  SolverCounts counts;
  counts.dp_work = dp.work;
  counts.dp_pruned_cells = dp.pruned_cells;
  if (!dp.worker_work.empty()) {
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    for (const std::uint64_t w : dp.worker_work) {
      sum += w;
      max = std::max(max, w);
    }
    const double mean =
        static_cast<double>(sum) / static_cast<double>(dp.worker_work.size());
    if (mean > 0.0) counts.dp_work_imbalance = static_cast<double>(max) / mean;
  }
  return counts;
}

std::string FieldValue(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  const std::size_t end = json.find_first_of(",\n", begin);
  return json.substr(begin, end == std::string::npos ? end : end - begin);
}

}  // namespace perfbench
