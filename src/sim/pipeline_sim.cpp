#include "sim/pipeline_sim.h"

#include <algorithm>

#include "sim/telemetry.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/tracer.h"

namespace pipemap {

SimOptions MeasurementSimOptions(int num_datasets, double noise,
                                 std::uint64_t seed) {
  SimOptions options;
  options.num_datasets = num_datasets;
  options.warmup = num_datasets / 4;
  options.noise.systematic_stddev = noise;
  options.noise.jitter_stddev = noise / 3.0;
  options.noise.seed = seed;
  return options;
}

PipelineSimulator::PipelineSimulator(const TaskChain& chain)
    : chain_(&chain) {}

SimResult PipelineSimulator::Run(const Mapping& mapping,
                                 const SimOptions& options) const {
  const TaskChain& chain = *chain_;
  ValidateMapping(mapping, chain, mapping.TotalProcs());
  PIPEMAP_CHECK(options.num_datasets >= 1,
                "PipelineSimulator: need at least one data set");
  const int n = options.num_datasets;
  const int l = mapping.num_modules();
  const ChainCostModel& costs = chain.costs();

  PIPEMAP_TRACE_SPAN("sim.pipeline.run", "sim", n);
  PIPEMAP_COUNTER_ADD("sim.pipeline.datasets", static_cast<std::uint64_t>(n));
  PIPEMAP_COUNTER_ADD(
      "sim.pipeline.transfers",
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(l - 1));

  const FaultPlan* faults =
      (options.faults != nullptr && !options.faults->empty()) ? options.faults
                                                              : nullptr;
  FaultImpact impact;
  bool any_crash = false;
  if (faults != nullptr) {
    faults->Validate(l);
    impact.crash_events = faults->CountKind(FaultKind::kCrash);
    impact.slowdown_events = faults->CountKind(FaultKind::kSlowdown);
    impact.link_events = faults->CountKind(FaultKind::kLinkDegrade);
    any_crash = impact.crash_events > 0;
    PIPEMAP_COUNTER_ADD("sim.fault.events",
                        static_cast<std::uint64_t>(faults->events.size()));
  }

  NoiseModel noise(options.noise, chain.size());
  SimTelemetry telemetry(mapping, n);

  // Per-instance availability and busy-time accounting.
  std::vector<std::vector<double>> free_at(l);
  std::vector<std::vector<double>> busy(l);
  for (int m = 0; m < l; ++m) {
    free_at[m].assign(mapping.modules[m].replicas, 0.0);
    busy[m].assign(mapping.modules[m].replicas, 0.0);
  }
  std::vector<ModuleActivity> activity(l);

  // Transfer intervals already started, for contention counting.
  std::vector<std::pair<double, double>> transfers;
  auto concurrency_at = [&](double t) {
    int count = 1;  // the transfer being scheduled
    for (const auto& [s, e] : transfers) {
      if (s <= t && t < e) ++count;
    }
    return count;
  };

  Profile profile(chain.size());
  ExecutionTrace trace;

  std::vector<double> done(n, 0.0);
  std::vector<double> enter(n, 0.0);
  // Completion time and serving instance of data set d at the *previous*
  // module while scanning modules left to right. Without faults the
  // serving instance is always d % replicas; crash rerouting can move it.
  double upstream_done = 0.0;
  int upstream_inst = 0;

  for (int d = 0; d < n; ++d) {
    for (int m = 0; m < l; ++m) {
      const ModuleAssignment& mod = mapping.modules[m];
      int inst = d % mod.replicas;
      const int p = mod.procs_per_instance;

      if (any_crash) {
        // A crashed instance accepts no new work from its crash time
        // onward (work already started completes); its data sets route to
        // the surviving sibling that can start earliest, lowest index on
        // ties.
        auto tentative = [&](int i) {
          return m == 0 ? free_at[m][i]
                        : std::max({upstream_done,
                                    free_at[m - 1][upstream_inst],
                                    free_at[m][i]});
        };
        if (faults->CrashedAt(m, inst, tentative(inst))) {
          int best = -1;
          double best_t = 0.0;
          for (int i = 0; i < mod.replicas; ++i) {
            const double t = tentative(i);
            if (faults->CrashedAt(m, i, t)) continue;
            if (best < 0 || t < best_t) {
              best = i;
              best_t = t;
            }
          }
          if (best < 0) {
            throw Infeasible("PipelineSimulator: every instance of module " +
                             std::to_string(m) + " has crashed");
          }
          inst = best;
          ++impact.reroutes;
          PIPEMAP_COUNTER_ADD("sim.fault.reroutes", 1);
        }
      }

      double start;
      if (m == 0) {
        // External input is always available.
        start = free_at[m][inst];
        enter[d] = start;
      } else {
        const ModuleAssignment& prev = mapping.modules[m - 1];
        const int sender = upstream_inst;
        const int edge = mod.first_task - 1;
        // The data set is "queued" at m's input from the moment the
        // upstream compute produced it until the rendezvous starts.
        telemetry.RecordQueuePush(m, upstream_done);
        const double t_start =
            std::max({upstream_done, free_at[m - 1][sender],
                      free_at[m][inst]});
        telemetry.RecordQueuePop(m, t_start);
        double dur = costs.ECom(edge, prev.procs_per_instance, p) *
                     noise.EComBias(edge) * noise.Jitter() *
                     noise.ContentionFactor(concurrency_at(t_start));
        if (faults != nullptr) {
          dur *= faults->TransferFactor(m - 1, t_start);
        }
        if (options.transfer_adjustment) {
          dur = options.transfer_adjustment(edge, sender, inst, dur);
        }
        const double t_end = t_start + dur;
        if (options.noise.contention_coeff > 0.0) {
          transfers.emplace_back(t_start, t_end);
        }
        if (options.collect_profile) {
          profile.ecom_samples[edge].push_back(
              {prev.procs_per_instance, p, dur});
        }
        // The sender is occupied for the duration of the rendezvous; time
        // spent waiting for the receiver to become free is idle time.
        busy[m - 1][sender] += t_end - t_start;
        free_at[m - 1][sender] = t_end;
        busy[m][inst] += t_end - t_start;
        activity[m - 1].send_s += t_end - t_start;
        activity[m].receive_s += t_end - t_start;
        telemetry.RecordPhase(m - 1, sender, TraceEvent::Phase::kSend, d,
                              t_start, t_end);
        telemetry.RecordPhase(m, inst, TraceEvent::Phase::kReceive, d,
                              t_start, t_end);
        if (options.collect_trace) {
          trace.events.push_back(TraceEvent{m - 1, sender, d,
                                            TraceEvent::Phase::kSend,
                                            t_start, t_end});
          trace.events.push_back(TraceEvent{m, inst, d,
                                            TraceEvent::Phase::kReceive,
                                            t_start, t_end});
        }
        start = t_end;
      }

      // Compute phase: member task executions plus internal
      // redistributions, each an observable sub-phase. A slowdown window
      // covering the phase's start stretches the whole phase.
      const double compute_factor =
          faults != nullptr ? faults->ComputeFactor(m, inst, start) : 1.0;
      double body = 0.0;
      for (int t = mod.first_task; t <= mod.last_task; ++t) {
        const double dur = costs.Exec(t, p) * noise.ExecBias(t) *
                           noise.Jitter() * compute_factor;
        body += dur;
        if (options.collect_profile) {
          profile.exec_samples[t].push_back({p, dur});
        }
        if (t < mod.last_task) {
          const double redis = costs.ICom(t, p) * noise.IComBias(t) *
                               noise.Jitter() * compute_factor;
          body += redis;
          if (options.collect_profile) {
            profile.icom_samples[t].push_back({p, redis});
          }
        }
      }
      const double end = start + body;
      busy[m][inst] += end - start;
      free_at[m][inst] = end;
      activity[m].compute_s += end - start;
      telemetry.RecordPhase(m, inst, TraceEvent::Phase::kCompute, d, start,
                            end);
      if (options.collect_trace) {
        trace.events.push_back(TraceEvent{
            m, inst, d, TraceEvent::Phase::kCompute, start, end});
      }
      upstream_done = end;
      upstream_inst = inst;
    }
    done[d] = upstream_done;
    telemetry.RecordDataset(d, enter[d], done[d]);
  }

  SimResult result;
  result.makespan = done[n - 1];
  const int warmup = std::min(options.warmup, n - 1);
  if (warmup > 0) {
    result.throughput =
        static_cast<double>(n - warmup) / (done[n - 1] - done[warmup - 1]);
  } else {
    result.throughput = static_cast<double>(n) / done[n - 1];
  }
  double latency_sum = 0.0;
  for (int d = 0; d < n; ++d) latency_sum += done[d] - enter[d];
  result.mean_latency = latency_sum / n;
  result.module_utilization.resize(l);
  for (int m = 0; m < l; ++m) {
    double total = 0.0;
    for (double b : busy[m]) total += b;
    result.module_utilization[m] =
        total / (busy[m].size() * result.makespan);
  }
  result.module_activity = std::move(activity);
  if (faults != nullptr) result.fault_impact = impact;
  if (options.collect_profile) result.profile = std::move(profile);
  if (options.collect_trace) {
    trace.makespan = result.makespan;
    result.trace = std::move(trace);
  }
  telemetry.Finish(result);
  return result;
}

}  // namespace pipemap
