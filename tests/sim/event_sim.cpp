#include "event_sim.h"

#include <optional>

#include "event_queue.h"
#include "sim/noise.h"
#include "sim/telemetry.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/tracer.h"

namespace pipemap {
namespace {

/// Mutable state of one module instance.
struct Instance {
  bool busy = false;
  /// Data set waiting at this instance's output for the downstream
  /// rendezvous; while set, the instance may not start its next input.
  std::optional<int> pending_send;
  /// Next data set this instance handles (m == 0: next to compute;
  /// m > 0: next to receive). Advances by the module's replica count.
  int next_dataset = 0;
};

class Engine {
 public:
  Engine(const TaskChain& chain, const Mapping& mapping,
         const SimOptions& options)
      : chain_(chain),
        mapping_(mapping),
        options_(options),
        noise_(options.noise, chain.size()),
        l_(mapping.num_modules()),
        telemetry_(mapping, options.num_datasets),
        instances_(l_),
        busy_time_(l_),
        activity_(l_),
        done_(options.num_datasets, 0.0),
        enter_(options.num_datasets, 0.0) {
    for (int m = 0; m < l_; ++m) {
      instances_[m].resize(mapping.modules[m].replicas);
      busy_time_[m].assign(mapping.modules[m].replicas, 0.0);
      for (int i = 0; i < mapping.modules[m].replicas; ++i) {
        instances_[m][i].next_dataset = i;
      }
    }
  }

  SimResult Run() {
    for (int i = 0; i < mapping_.modules[0].replicas; ++i) {
      StartSourceCompute(0, i);
    }
    queue_.RunAll();

    SimResult result;
    const int n = options_.num_datasets;
    result.makespan = done_[n - 1];
    const int warmup = std::min(options_.warmup, n - 1);
    result.throughput =
        warmup > 0 ? (n - warmup) / (done_[n - 1] - done_[warmup - 1])
                   : n / done_[n - 1];
    double latency_sum = 0.0;
    for (int d = 0; d < n; ++d) latency_sum += done_[d] - enter_[d];
    result.mean_latency = latency_sum / n;
    result.module_utilization.resize(l_);
    for (int m = 0; m < l_; ++m) {
      double total = 0.0;
      for (double b : busy_time_[m]) total += b;
      result.module_utilization[m] =
          total / (busy_time_[m].size() * result.makespan);
    }
    result.module_activity = activity_;
    if (options_.faults != nullptr && !options_.faults->empty()) {
      FaultImpact impact;
      impact.slowdown_events =
          options_.faults->CountKind(FaultKind::kSlowdown);
      impact.link_events =
          options_.faults->CountKind(FaultKind::kLinkDegrade);
      result.fault_impact = impact;
    }
    telemetry_.Finish(result);
    return result;
  }

 private:
  double BodyTime(int module, int instance, int procs, double at) {
    const ModuleAssignment& mod = mapping_.modules[module];
    // Slowdown windows stretch the whole phase by the factor active at its
    // start (same rule as the pipeline simulator).
    const double factor =
        options_.faults != nullptr
            ? options_.faults->ComputeFactor(module, instance, at)
            : 1.0;
    double body = 0.0;
    for (int t = mod.first_task; t <= mod.last_task; ++t) {
      body += chain_.costs().Exec(t, procs) * noise_.ExecBias(t);
      if (t < mod.last_task) {
        body += chain_.costs().ICom(t, procs) * noise_.IComBias(t);
      }
    }
    return body * factor;
  }

  /// Module-0 instances pull external input whenever they are free.
  void StartSourceCompute(int m, int i) {
    Instance& inst = instances_[m][i];
    if (inst.busy || inst.pending_send.has_value()) return;
    const int d = inst.next_dataset;
    if (d >= options_.num_datasets) return;
    inst.next_dataset += mapping_.modules[m].replicas;
    inst.busy = true;
    enter_[d] = queue_.now();
    const double body = BodyTime(
        m, i, mapping_.modules[m].procs_per_instance, queue_.now());
    busy_time_[m][i] += body;
    activity_[m].compute_s += body;
    telemetry_.RecordPhase(m, i, TraceEvent::Phase::kCompute, d,
                           queue_.now(), queue_.now() + body);
    queue_.Schedule(queue_.now() + body,
                    [this, m, i, d] { ComputeDone(m, i, d); });
  }

  void ComputeDone(int m, int i, int d) {
    Instance& inst = instances_[m][i];
    inst.busy = false;
    if (m == l_ - 1) {
      done_[d] = queue_.now();
      telemetry_.RecordDataset(d, enter_[d], done_[d]);
      // Last module writes external output for free; the instance is free
      // for its next input.
      if (l_ == 1) {
        StartSourceCompute(m, i);
      } else {
        TryStartTransfer(m, i);
      }
      return;
    }
    inst.pending_send = d;
    telemetry_.RecordQueuePush(m + 1, queue_.now());
    TryStartTransfer(m + 1, d % mapping_.modules[m + 1].replicas);
  }

  /// Attempts the rendezvous delivering receiver (m, i)'s next expected
  /// data set. Fires only when the upstream producer has it pending and
  /// the receiver is free.
  void TryStartTransfer(int m, int i) {
    Instance& receiver = instances_[m][i];
    if (receiver.busy || receiver.pending_send.has_value()) return;
    const int d = receiver.next_dataset;
    if (d >= options_.num_datasets) return;
    const int sender_index = d % mapping_.modules[m - 1].replicas;
    Instance& sender = instances_[m - 1][sender_index];
    if (sender.busy || sender.pending_send != d) return;

    receiver.next_dataset += mapping_.modules[m].replicas;
    sender.busy = true;
    receiver.busy = true;
    const int edge = mapping_.modules[m].first_task - 1;
    double dur =
        chain_.costs().ECom(edge, mapping_.modules[m - 1].procs_per_instance,
                            mapping_.modules[m].procs_per_instance) *
        noise_.EComBias(edge);
    if (options_.faults != nullptr) {
      dur *= options_.faults->TransferFactor(m - 1, queue_.now());
    }
    if (options_.transfer_adjustment) {
      dur = options_.transfer_adjustment(edge, sender_index, i, dur);
    }
    busy_time_[m - 1][sender_index] += dur;
    busy_time_[m][i] += dur;
    activity_[m - 1].send_s += dur;
    activity_[m].receive_s += dur;
    telemetry_.RecordQueuePop(m, queue_.now());
    telemetry_.RecordPhase(m - 1, sender_index, TraceEvent::Phase::kSend, d,
                           queue_.now(), queue_.now() + dur);
    telemetry_.RecordPhase(m, i, TraceEvent::Phase::kReceive, d,
                           queue_.now(), queue_.now() + dur);
    queue_.Schedule(queue_.now() + dur, [this, m, i, sender_index, d] {
      TransferDone(m, i, sender_index, d);
    });
  }

  void TransferDone(int m, int i, int sender_index, int d) {
    Instance& sender = instances_[m - 1][sender_index];
    sender.busy = false;
    sender.pending_send.reset();
    // The sender resumes its own input loop.
    if (m - 1 == 0) {
      StartSourceCompute(0, sender_index);
    } else {
      TryStartTransfer(m - 1, sender_index);
    }

    // The receiver computes immediately after the rendezvous.
    const double body = BodyTime(
        m, i, mapping_.modules[m].procs_per_instance, queue_.now());
    busy_time_[m][i] += body;
    activity_[m].compute_s += body;
    telemetry_.RecordPhase(m, i, TraceEvent::Phase::kCompute, d,
                           queue_.now(), queue_.now() + body);
    queue_.Schedule(queue_.now() + body,
                    [this, m, i, d] { ComputeDone(m, i, d); });
  }

  const TaskChain& chain_;
  const Mapping& mapping_;
  const SimOptions& options_;
  NoiseModel noise_;
  int l_;
  SimTelemetry telemetry_;
  EventQueue queue_;
  std::vector<std::vector<Instance>> instances_;
  std::vector<std::vector<double>> busy_time_;
  std::vector<ModuleActivity> activity_;
  std::vector<double> done_;
  std::vector<double> enter_;
};

}  // namespace

EventDrivenSimulator::EventDrivenSimulator(const TaskChain& chain)
    : chain_(&chain) {}

SimResult EventDrivenSimulator::Run(const Mapping& mapping,
                                    const SimOptions& options) const {
  ValidateMapping(mapping, *chain_, mapping.TotalProcs());
  PIPEMAP_CHECK(options.num_datasets >= 1,
                "EventDrivenSimulator: need at least one data set");
  PIPEMAP_CHECK(options.noise.jitter_stddev == 0.0 &&
                    options.noise.contention_coeff == 0.0,
                "EventDrivenSimulator: jitter/contention are order-dependent"
                " and not supported by this engine");
  PIPEMAP_CHECK(!options.collect_profile && !options.collect_trace,
                "EventDrivenSimulator: profile/trace collection unsupported");
  if (options.faults != nullptr) {
    options.faults->Validate(mapping.num_modules());
    // Crash rerouting changes which instance serves a data set, which this
    // engine's fixed round-robin rendezvous matching cannot express; the
    // pipeline simulator handles crashes.
    PIPEMAP_CHECK(options.faults->CountKind(FaultKind::kCrash) == 0,
                  "EventDrivenSimulator: crash events are not supported by"
                  " this engine (use PipelineSimulator)");
  }
  PIPEMAP_TRACE_SPAN("sim.event.run", "sim", options.num_datasets);
  PIPEMAP_COUNTER_ADD("sim.event.datasets",
                      static_cast<std::uint64_t>(options.num_datasets));
  Engine engine(*chain_, mapping, options);
  return engine.Run();
}

}  // namespace pipemap
