// The value type shared by the solution cache's tiers.
#pragma once

#include <string>

namespace pipemap {

/// A cached solution: everything needed to answer a MapRequest without
/// re-solving, plus the provenance of the original solve.
struct CachedSolution {
  /// SerializeMapping output of the solved mapping.
  std::string mapping_text;
  double objective_value = 0.0;
  double throughput = 0.0;
  double latency = 0.0;
  /// Registry name of the solver that produced the entry (e.g. "dp",
  /// "greedy+dp").
  std::string solver;
  bool exact = false;
  /// SerializeMapping output of the solve placed on the machine
  /// (FeasibilityChecker::MakeFeasible), with its re-evaluated numbers.
  /// Set only for requests with MapRequest::machine_feasibility whose
  /// placement changed the solve; empty when the placed mapping is the
  /// solve itself.
  std::string placed_mapping_text;
  double placed_objective_value = 0.0;
  double placed_throughput = 0.0;
  double placed_latency = 0.0;
  /// True when this Lookup result came from the persistent tier rather
  /// than the in-memory LRU. Provenance only: never serialized, reset on
  /// insert, and the rehydrated in-memory copy reports false.
  bool from_disk = false;
};

}  // namespace pipemap
