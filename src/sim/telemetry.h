// Pipeline-runtime telemetry: what the *executing pipeline* did, fed into
// the same observability stack that watches the mappers decide.
//
// PR 2 instrumented the mapping engines; the simulators still reported
// only end-to-end numbers. SimTelemetry closes that gap: the simulation
// engines call its hooks with the simulated-time values they already
// compute, and the hooks publish
//   * per-module utilization / occupancy gauges and queue-depth peaks,
//   * per-data-set stage-latency and module-service-time histograms,
//   * a per-run throughput / latency / makespan gauge set
// through the process-wide MetricsRegistry (support/metrics.h), plus
//   * one simulated-time span per (module, instance) activity and per
//     data set, and queue-depth counter events,
// through the Chrome-trace Tracer (support/tracer.h) on virtual lanes —
// so an exported trace shows the pipeline executing, not just the mapper
// deciding.
//
// Cost and purity contract (mirrors DESIGN.md §5c):
//   * telemetry only ever READS simulator state — it never perturbs the
//     timing recurrence, the noise stream, or any result field, so
//     simulated results are byte-identical with collection on or off;
//   * the whole object is inert unless MetricsRegistry::Enabled() or
//     Tracer::Enabled() held at construction: the disabled-path cost of a
//     simulation run is two relaxed atomic loads total (hooks early-out on
//     one cached bool).
//
// Metric names follow the "<subsystem>.<metric>" convention; per-module
// series embed the module index as its own segment:
//   sim.stage.receive_s / sim.stage.compute_s / sim.stage.send_s
//   sim.dataset.latency_s            per-data-set pipeline latency
//   sim.queue.depth                  input-queue depth at change points
//   sim.module.<m>.stage_latency_s   per-phase latency of module m
//   sim.module.<m>.utilization       busy fraction over the run
//   sim.module.<m>.occupancy         mean busy instances (util * replicas)
//   sim.module.<m>.queue_depth_peak  worst input-queue depth
//   sim.run.throughput / sim.run.mean_latency_s / sim.run.makespan_s
//   sim.telemetry.runs               counter of observed simulations
#pragma once

#include <cstdint>
#include <vector>

#include "core/mapping.h"
#include "sim/trace.h"

namespace pipemap {

struct SimResult;

class SimTelemetry {
 public:
  /// Samples the collection switches once; `mapping` fixes the module /
  /// instance geometry (lane assignment, per-module metric handles).
  SimTelemetry(const Mapping& mapping, int num_datasets);
  ~SimTelemetry();
  SimTelemetry(const SimTelemetry&) = delete;
  SimTelemetry& operator=(const SimTelemetry&) = delete;

  /// True when construction found metrics or tracing enabled. Hooks are
  /// safe to call either way (they early-out when inactive).
  bool active() const { return metrics_ || tracing_; }

  /// One busy interval of one module instance, in simulated seconds.
  void RecordPhase(int module, int instance, TraceEvent::Phase phase,
                   int dataset, double start_s, double end_s);

  /// A data set became ready at `module`'s input (upstream compute done) /
  /// was consumed from it (rendezvous started). Events may arrive out of
  /// time order — the pipeline engine scans data-set-major — so the series
  /// is buffered and ordered at Finish.
  void RecordQueuePush(int module, double t_s);
  void RecordQueuePop(int module, double t_s);

  /// A data set completed the whole pipeline.
  void RecordDataset(int dataset, double enter_s, double done_s);

  /// Publishes the end-of-run gauges (utilization, occupancy, run
  /// summary) and flushes the queue-depth series. Call once, after the
  /// engine assembled `result`.
  void Finish(const SimResult& result);

 private:
  struct ModuleHandles;
  struct QueueEvent {
    int module = 0;
    double t_s = 0.0;
    int delta = 0;  // +1 push, -1 pop
  };

  int LaneOf(int module, int instance) const;
  static std::uint64_t ToNs(double seconds);

  bool metrics_ = false;
  bool tracing_ = false;
  int num_datasets_ = 0;
  std::vector<int> replicas_;
  /// Lane index of (module, 0); instance lanes follow contiguously. Lane 0
  /// is the per-data-set row.
  std::vector<int> lane_base_;
  std::vector<ModuleHandles> handles_;  // metrics_ only
  std::vector<QueueEvent> queue_events_;
};

}  // namespace pipemap
