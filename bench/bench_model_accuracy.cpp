// Reproduces the Section 6.3 model-accuracy claim: "We checked the accuracy
// of the model by comparing the predicted and actual communication and
// computation times for a set of mappings and the difference averaged less
// than 10%."
//
// For each workload: fit the Section-5 model from 8 training runs, then
// (1) compare the fitted cost functions against ground truth over the
// processor range, and (2) compare predicted vs simulated throughput over a
// set of probe mappings none of which were in the training set.
//
// Besides the text table, the run writes a machine-readable JSON file
// (default BENCH_model_accuracy.json) with the per-application
// predicted-vs-simulated divergence of every probe mapping, so the model's
// accuracy trajectory is tracked PR over PR alongside the perf benches.
//
// Usage: bench_model_accuracy [output.json]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/baseline.h"
#include "core/dp_mapper.h"
#include "core/evaluator.h"
#include "core/greedy_mapper.h"
#include "profiling/profiler.h"
#include "support/json_writer.h"
#include "support/table.h"
#include "bench_util.h"

namespace pipemap::bench {
namespace {

struct ProbeRecord {
  std::string name;
  std::string mapping;
  double predicted = 0.0;
  double measured = 0.0;
  double error = 0.0;  // |measured - predicted| / measured
};

struct AppRecord {
  std::string label;
  std::string size;
  std::string comm;
  double fn_mean_err = 0.0;
  double fn_max_err = 0.0;
  double probe_mean_err = 0.0;
  double probe_max_err = 0.0;
  std::vector<ProbeRecord> probes;
};

int Run(const std::string& out_path) {
  std::printf("Section 6.3: accuracy of the profile-fitted cost model\n\n");

  TextTable table({"Program", "Size", "Comm", "Fn mean err %", "Fn max err %",
                   "Probe mean err %", "Probe max err %"});
  std::vector<AppRecord> apps;
  for (const NamedWorkload& c : Table2Configs()) {
    const int P = c.workload.machine.total_procs();
    const double node_mem = c.workload.machine.node_memory_bytes;
    Profiler profiler(c.workload.chain, P, node_mem);
    ProfilerOptions poptions;
    poptions.sim.noise.systematic_stddev = 0.03;
    poptions.sim.noise.jitter_stddev = 0.01;
    const FittedModel model = profiler.Fit(poptions);
    const FitQuality fn_quality =
        CompareChainModels(c.workload.chain, model.chain, P);

    // Probe mappings: DP optimum, greedy, data parallel, task parallel.
    const Evaluator fitted_eval(model.chain, P, node_mem);
    std::vector<std::pair<const char*, Mapping>> probes;
    probes.emplace_back("dp", DpMapper().Map(fitted_eval, P).mapping);
    probes.emplace_back("greedy", GreedyMapper().Map(fitted_eval, P).mapping);
    probes.emplace_back("data_parallel",
                        DataParallelMapping(fitted_eval, P).mapping);
    probes.emplace_back("task_parallel",
                        TaskParallelMapping(fitted_eval, P).mapping);

    PipelineSimulator sim(c.workload.chain);
    SimOptions soptions;
    soptions.num_datasets = 400;
    soptions.warmup = 150;
    soptions.noise.systematic_stddev = 0.03;
    soptions.noise.jitter_stddev = 0.01;

    AppRecord app;
    app.label = c.label;
    app.size = c.size;
    app.comm = ToString(c.workload.machine.comm_mode);
    app.fn_mean_err = fn_quality.mean_relative_error;
    app.fn_max_err = fn_quality.max_relative_error;
    double sum = 0.0, worst = 0.0;
    for (const auto& [name, probe] : probes) {
      ProbeRecord rec;
      rec.name = name;
      rec.mapping = probe.ToString(c.workload.chain);
      rec.predicted = fitted_eval.Throughput(probe);
      rec.measured = sim.Run(probe, soptions).throughput;
      rec.error = std::abs(rec.measured - rec.predicted) / rec.measured;
      sum += rec.error;
      worst = std::max(worst, rec.error);
      app.probes.push_back(std::move(rec));
    }
    app.probe_mean_err = sum / probes.size();
    app.probe_max_err = worst;
    table.AddRow({c.label, c.size, app.comm,
                  TextTable::Num(100 * app.fn_mean_err, 1),
                  TextTable::Num(100 * app.fn_max_err, 1),
                  TextTable::Num(100 * app.probe_mean_err, 1),
                  TextTable::Num(100 * app.probe_max_err, 1)});
    apps.push_back(std::move(app));
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "\nShape check: probe-mapping throughput prediction error averages\n"
      "around 10%% or less (the paper's figure); pointwise cost-function\n"
      "error is larger at extrapolated corners, as expected from an\n"
      "8-run training budget.\n");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("bench_model_accuracy");
  WriteHostJson(w);
  w.Key("applications").BeginArray();
  for (const AppRecord& app : apps) {
    w.BeginObject();
    w.Key("program").String(app.label);
    w.Key("size").String(app.size);
    w.Key("comm").String(app.comm);
    w.Key("fn_mean_err").Double(app.fn_mean_err);
    w.Key("fn_max_err").Double(app.fn_max_err);
    w.Key("probe_mean_err").Double(app.probe_mean_err);
    w.Key("probe_max_err").Double(app.probe_max_err);
    w.Key("probes").BeginArray();
    for (const ProbeRecord& rec : app.probes) {
      w.BeginObject();
      w.Key("name").String(rec.name);
      w.Key("mapping").String(rec.mapping);
      w.Key("predicted_throughput").Double(rec.predicted);
      w.Key("simulated_throughput").Double(rec.measured);
      w.Key("divergence").Double(rec.error);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << w.str();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace pipemap::bench

int main(int argc, char** argv) {
  const std::string out =
      argc > 1 ? argv[1] : "BENCH_model_accuracy.json";
  return pipemap::bench::Run(out);
}
