// Pipeline execution simulator (the paper's Figure 2 execution model).
//
// Simulates a mapped task chain processing a stream of data sets:
//   * each module runs as `replicas` instances; data set d is handled by
//     instance d mod r (round-robin, as in Figure 3),
//   * within an instance, activities are strictly ordered per data set:
//     receive, compute (task executions + internal redistributions), send,
//   * an inter-module transfer is a rendezvous — sender and receiver
//     instances are both occupied for the entire communication step, the
//     defining property of the paper's execution model,
//   * the first module reads external input (always available) and the
//     last writes external output (free).
//
// Because instance activity order is deterministic, the simulation advances
// in data-set-major order with exact timing recurrences; this is equivalent
// to (and far cheaper than) a general event queue for this model.
//
// The simulator plays the role of the paper's iWarp testbed: it executes
// *ground-truth* cost functions (with optional systematic bias, jitter, and
// transfer contention from sim/noise.h), measures steady-state throughput,
// and can harvest per-phase profiles exactly like an instrumented run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/mapping.h"
#include "core/task.h"
#include "fault/fault_plan.h"
#include "sim/noise.h"
#include "sim/profile.h"
#include "sim/trace.h"

namespace pipemap {

struct SimOptions {
  /// Data sets pushed through the pipeline.
  int num_datasets = 200;
  /// Leading data sets excluded from the throughput measurement (pipeline
  /// fill transient).
  int warmup = 50;
  NoiseSpec noise;
  /// When set, per-phase timings are recorded into SimResult::profile.
  bool collect_profile = false;
  /// When set, every busy interval is recorded into SimResult::trace
  /// (memory grows with num_datasets * modules; use for visualization and
  /// debugging, not for long measurement runs).
  bool collect_trace = false;

  /// Optional per-transfer cost adjustment
  /// (edge, sender_instance, receiver_instance, seconds) -> seconds,
  /// applied after the noise model. Used by the placement-aware simulator
  /// to add routing-distance and link-sharing effects; must be a pure
  /// function of its arguments (order-independent).
  std::function<double(int, int, int, double)> transfer_adjustment;

  /// Optional fault schedule (fault/fault_plan.h), borrowed for the run.
  /// Crashed instances stop accepting new data sets (work already started
  /// completes) and their traffic reroutes to surviving siblings; slowdown
  /// and link events stretch compute and transfer durations inside their
  /// windows. Module/edge indices in the plan refer to the *mapping*'s
  /// modules and boundaries. Throws pipemap::Infeasible when every
  /// instance of a module has crashed.
  const FaultPlan* faults = nullptr;
};

/// The options a measurement request (CLI simulate/report, the server's
/// simulate op) runs with: the first quarter of the data sets is warm-up,
/// `noise` is the systematic stddev and a third of it the per-phase
/// jitter. Range-checking the inputs is the caller's job.
SimOptions MeasurementSimOptions(int num_datasets, double noise,
                                 std::uint64_t seed);

/// Per-module activity totals: seconds spent in each phase, summed over
/// the module's instances and all data sets. Always populated by both
/// simulation engines (independent of any observability switch); the
/// basis for bottleneck attribution (sim/attribution.h).
struct ModuleActivity {
  double receive_s = 0.0;
  double compute_s = 0.0;
  double send_s = 0.0;

  double busy_s() const { return receive_s + compute_s + send_s; }
};

struct SimResult {
  /// Steady-state throughput, data sets per second.
  double throughput = 0.0;
  /// Completion time of the last data set.
  double makespan = 0.0;
  /// Mean time from a data set entering module 0 to leaving the last module.
  double mean_latency = 0.0;
  /// Busy fraction per module (averaged over its instances) during the
  /// measured window.
  std::vector<double> module_utilization;
  /// Per-phase busy-time totals per module.
  std::vector<ModuleActivity> module_activity;
  /// Present when SimOptions::faults supplied a non-empty plan.
  std::optional<FaultImpact> fault_impact;
  /// Present when SimOptions::collect_profile is set.
  std::optional<Profile> profile;
  /// Present when SimOptions::collect_trace is set.
  std::optional<ExecutionTrace> trace;
};

class PipelineSimulator {
 public:
  /// `chain` carries the ground-truth cost model.
  explicit PipelineSimulator(const TaskChain& chain);

  /// Executes `mapping` and measures it. Throws pipemap::InvalidArgument on
  /// a mapping that does not cover the chain or replicates a
  /// non-replicable task.
  SimResult Run(const Mapping& mapping, const SimOptions& options) const;

 private:
  const TaskChain* chain_;
};

}  // namespace pipemap
