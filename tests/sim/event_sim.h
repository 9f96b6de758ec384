// Event-driven pipeline simulator.
//
// An independent implementation of the Figure-2 execution semantics: module
// instances are state machines (idle / receiving / computing / sending)
// driven by a discrete-event queue, with inter-module transfers as explicit
// rendezvous handshakes. It exists to cross-validate PipelineSimulator,
// whose data-set-major recurrence is faster but whose correctness rests on
// an ordering argument; two structurally different simulators agreeing to
// machine precision is the strongest evidence either is right. Only the
// tests run it, so it is built with them rather than into pipemap_sim.
//
// Noise support is limited to the systematic per-phase bias: per-event
// jitter and transfer contention depend on event *ordering*, which
// legitimately differs between the two engines.
#pragma once

#include "core/mapping.h"
#include "core/task.h"
#include "sim/pipeline_sim.h"

namespace pipemap {

class EventDrivenSimulator {
 public:
  explicit EventDrivenSimulator(const TaskChain& chain);

  /// Executes `mapping`. Requires options.noise.jitter_stddev == 0 and
  /// options.noise.contention_coeff == 0 (see header comment); profile and
  /// trace collection are not supported by this engine.
  SimResult Run(const Mapping& mapping, const SimOptions& options) const;

 private:
  const TaskChain* chain_;
};

}  // namespace pipemap
