// MappingEngine: the one front door to the mapping algorithms.
//
// Callers describe *what* they want mapped — a chain, a machine, an
// objective, a solver policy — as a MapRequest; the engine decides *how*:
// which solver(s) to run, whether a cached solution already answers the
// request, and how to thread warm-start state through sweep-shaped
// workloads (latency/throughput frontiers, machine sizing). The response
// carries the mapping plus full provenance: which solver produced it,
// whether it is exact, the request fingerprint, cache and warm-start
// behavior, and wall-clock cost.
//
// Solver policy:
//   * kAuto (throughput): run greedy for a fast incumbent, then escalate
//     to the exact DP seeded with that incumbent (warm start). On
//     instances small enough for the exhaustive reference (see
//     EngineConfig thresholds) brute force additionally certifies the
//     result. Escalation stops when the request's time budget is spent,
//     in which case the response is marked inexact.
//   * kAuto (latency objectives): the latency DP directly.
//   * kDp / kGreedy / kBrute / kLatency: exactly that one solver. Only
//     kBrute and kLatency answer the latency objectives; a policy asked
//     for an objective its solver cannot answer is rejected.
//
// Caching: requests without a custom feasibility predicate are
// fingerprinted over the canonical serializations of the chain, machine,
// and options (engine/fingerprint.h) and answered from a sharded LRU
// cache (engine/solution_cache.h) when possible. A request may carry the
// chain as its canonical text (MapRequest::chain_text) instead of a
// parsed chain: the key then hashes those bytes, and the chain is parsed
// only on a miss, so a hit costs one hash and a lookup. A cache hit
// returns a mapping byte-identical to what a fresh solve would produce —
// the cache stores serialized mappings (the solve, and the placed mapping
// MapAndPlace returns), and the tests pin the equality. A custom
// proc_feasible closure cannot be fingerprinted, so such requests bypass
// the cache entirely rather than risk a false hit. With
// EngineConfig::cache_dir set the cache additionally persists
// (engine/cache_persist.h): a restarted process answers yesterday's
// fingerprints from disk, and the response reports which tier hit via
// MapResponse::cache_tier. Concurrent identical-fingerprint misses
// collapse into one solve (engine/single_flight.h) whose result fans out
// to every waiter with MapResponse::shared_solve provenance.
//
// Sweeps (Frontier, MinProcs) are cached whole under the same
// fingerprinting rules: a repeated sweep on an unchanged problem returns
// the memoized points without running a single DP solve. Within a first
// (uncached) sweep, the warm-start state still carries range tables and
// incumbents across the sweep's solves.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/evaluator.h"
#include "core/latency_mapper.h"
#include "core/mapper.h"
#include "core/task.h"
#include "engine/single_flight.h"
#include "engine/solution_cache.h"
#include "machine/machine.h"

namespace pipemap {

/// What the caller wants optimized.
enum class MapObjective {
  /// Maximize throughput (minimize the bottleneck effective response).
  kThroughput,
  /// Minimize one data set's traversal latency.
  kLatency,
  /// Minimize latency subject to throughput >= min_throughput.
  kLatencyWithFloor,
};

const char* ToString(MapObjective objective);

/// Which solver(s) the engine may use for a request.
enum class SolverPolicy {
  kAuto,
  kDp,
  kGreedy,
  kBrute,
  kLatency,
};

const char* ToString(SolverPolicy policy);

/// A mapping problem, fully described. The chain is borrowed (callers own
/// it, or its text, for the duration of the call); everything else is by
/// value.
struct MapRequest {
  /// The chain to map. May be null when chain_text is set.
  const TaskChain* chain = nullptr;
  /// The chain as canonical text (io/serialize.h SerializeChain over the
  /// processor budget). When set, the fingerprint hashes these bytes
  /// instead of serializing `chain`, and, when `chain` is null, the
  /// engine parses them only when it must solve (for Map, on a cache
  /// miss). Canonical text keys exactly as the parsed chain would; other
  /// text that parses (e.g. with comment lines) gets a key of its own and
  /// the same answer.
  std::string_view chain_text;
  MachineConfig machine;
  /// Processor budget; <= 0 means the whole machine.
  int total_procs = 0;
  MapObjective objective = MapObjective::kThroughput;
  /// Throughput floor for MapObjective::kLatencyWithFloor.
  double min_throughput = 0.0;
  SolverPolicy solver = SolverPolicy::kAuto;
  /// Algorithm options. A custom proc_feasible makes the request
  /// uncacheable; leave it null and keep machine_feasibility true to get
  /// the machine-derived predicate, which fingerprints via the machine.
  MapperOptions options;
  /// Installs FeasibilityChecker(machine)'s processor-count predicate
  /// when options.proc_feasible is null (matches the CLI's default).
  bool machine_feasibility = true;
  /// Consult/populate the engine's solution cache.
  bool use_cache = true;
  /// Request trace id (support/trace_context.h); 0 = untraced. Purely
  /// provenance: it never enters the fingerprint (two requests differing
  /// only in trace_id are the same problem and share a cache entry), but
  /// it is echoed in MapResponse, stamped on the engine's trace spans,
  /// and joins the solve to the server's access-log line.
  std::uint64_t trace_id = 0;
  /// Wall-clock budget for the whole request. The budget binds only when
  /// it is a positive finite number of seconds (Deadline::HasBudget);
  /// zero, negative, and infinite values all mean "no budget" — so a
  /// caller that leaves a protocol field at 0 gets an unconstrained solve,
  /// never one that expires at the starting line. Between portfolio stages
  /// under kAuto: once spent, no further solver is launched. Within a
  /// stage: the engine derives a cooperative Deadline (support/deadline.h)
  /// from this budget and threads it into the solver inner loops via
  /// MapperOptions::deadline, so a long solve is interrupted mid-stage and
  /// returns its best incumbent with MapResponse::timed_out set. An
  /// explicitly supplied options.deadline takes precedence.
  double time_budget_s = 0.0;

  /// The processor budget the request solves on: total_procs, or the
  /// whole machine when that is <= 0. Throws pipemap::InvalidArgument
  /// when neither is positive.
  int ResolvedProcs() const;
};

/// Sets `request`'s solver, objective and floor from the policy names the
/// CLI (--algorithm, --objective, --floor) and the server protocol
/// (algorithm, objective, floor) accept; each boundary supplies its own
/// defaults. Objective "latency" runs the latency solver whatever the
/// algorithm, under `floor` when one is given. Objective "throughput" runs
/// the solver `algorithm` names, the inverse of ToString(SolverPolicy):
/// "auto", "dp", "greedy" or "brute". Any other name throws
/// pipemap::InvalidArgument ("unknown objective: …", "unknown algorithm:
/// …").
void SetPolicyByName(std::string_view algorithm, std::string_view objective,
                     std::optional<double> floor, MapRequest* request);

/// A solved mapping plus provenance.
struct MapResponse {
  Mapping mapping;
  /// Minimized quantity: bottleneck effective response (s) for
  /// throughput, path latency (s) for the latency objectives.
  double objective_value = 0.0;
  double throughput = 0.0;
  double latency = 0.0;
  std::uint64_t work = 0;
  std::uint64_t pruned_cells = 0;

  /// "+"-joined names of the solvers that ran (e.g. "greedy+dp"); for a
  /// cache hit, the recorded chain from the original solve.
  std::string solver;
  /// The kept result is provably optimal (within the replication policy).
  bool exact = false;
  bool cache_hit = false;
  /// Which cache tier answered a hit: "memory", "disk" (persistent tier,
  /// which also rehydrates memory), or "" when the request was solved.
  std::string cache_tier;
  /// This response was served by a concurrent identical solve (single-
  /// flight dedup): another request's solver produced it and this one
  /// only waited. Neither a cache hit nor a solve of its own.
  bool shared_solve = false;
  /// The request could be fingerprinted and was eligible for the cache.
  bool cacheable = false;
  std::uint64_t fingerprint = 0;
  /// Warm-start activity during this solve (0 on cache hits).
  std::uint64_t warm_tables_built = 0;
  std::uint64_t warm_tables_reused = 0;
  std::uint64_t warm_incumbents_seeded = 0;
  /// Incremental re-solve activity (MapperOptions::incremental): sweeps
  /// captured for future reuse and solves that reused a captured sweep's
  /// clean prefix. Purely informational — incremental results are
  /// byte-identical to cold ones.
  std::uint64_t warm_sweeps_captured = 0;
  std::uint64_t warm_sweep_prefix_reused = 0;
  /// kAuto stopped escalating because time_budget_s was spent.
  bool budget_exhausted = false;
  /// A solver was interrupted mid-stage by the request deadline and
  /// returned its best incumbent. Timed-out responses are never exact and
  /// never cached.
  bool timed_out = false;
  double solve_seconds = 0.0;
  /// Echo of MapRequest::trace_id (0 = untraced); rendered as 16 hex
  /// digits in ToJson when set.
  std::uint64_t trace_id = 0;

  /// Provenance as JSON (support/json_writer.h); mapping excluded — pair
  /// with SerializeMapping or the run report for the mapping itself.
  std::string ToJson() const;
};

/// A request solved by MappingEngine::Map and placed on its machine.
struct PlacedMapping {
  /// The engine's answer; `response.mapping` is the solve as the engine
  /// returned and cached it. The numbers describe `mapping`: when
  /// placement changed it, throughput, latency and objective_value are
  /// re-evaluated for the placed mapping and `exact` is false.
  MapResponse response;
  /// The mapping to run: with MapRequest::machine_feasibility set, the
  /// solve with replicas dropped until it packs onto the machine
  /// (FeasibilityChecker::MakeFeasible); otherwise the solve itself.
  Mapping mapping;
};

/// Warm-start activity across an engine-driven sweep (Frontier/MinProcs).
struct SweepStats {
  std::uint64_t solves = 0;
  std::uint64_t warm_tables_built = 0;
  std::uint64_t warm_tables_reused = 0;
  std::uint64_t warm_incumbents_seeded = 0;
  /// Sweeps answered whole from the engine's sweep cache; such calls run
  /// zero solves, so the other counters stay untouched.
  std::uint64_t cache_hits = 0;
};

struct EngineConfig {
  std::size_t cache_capacity = 256;
  std::size_t cache_shards = 8;
  /// Instance-size ceiling for the brute-force certification stage of
  /// SolverPolicy::kAuto (exhaustive search is exponential).
  int brute_max_tasks = 5;
  int brute_max_procs = 10;
  /// When non-empty, the solution cache persists to this directory
  /// (engine/cache_persist.h): inserts spill write-behind, misses probe
  /// disk lazily, and a restarted process starts warm.
  std::string cache_dir;
  /// Disk budget for the persistent tier; 0 = unbounded. Crossing it
  /// evicts oldest entries (engine/cache_persist.h).
  std::uint64_t cache_dir_max_bytes = 0;
};

class MappingEngine {
 public:
  explicit MappingEngine(EngineConfig config = {});

  MappingEngine(const MappingEngine&) = delete;
  MappingEngine& operator=(const MappingEngine&) = delete;

  /// Solves one request (cache → portfolio → cache fill). Throws
  /// pipemap::InvalidArgument on malformed requests and propagates the
  /// solvers' Infeasible/ResourceLimit.
  MapResponse Map(const MapRequest& request);

  /// Map, then place the solve on the machine. The one path from a
  /// request to a runnable mapping, shared by the CLI and the server. The
  /// placement is computed with the solve and cached with it, so a cache
  /// hit or a shared solve places without building an Evaluator.
  PlacedMapping MapAndPlace(const MapRequest& request);

  /// The latency/throughput Pareto frontier on the request's machine and
  /// budget. All solves in the sweep share one warm-start state (range
  /// tables and incumbents carry across floors); `stats`, when non-null,
  /// receives the reuse counts. The request's objective field is ignored.
  /// When the request is cacheable (use_cache set, no custom predicate)
  /// the whole sweep is memoized under (fingerprint, num_points) and a
  /// repeat returns the identical points without solving.
  std::vector<FrontierPoint> Frontier(const MapRequest& request,
                                      int num_points,
                                      SweepStats* stats = nullptr);

  /// Smallest processor count reaching `target_throughput`, warm-starting
  /// the binary search's solves like Frontier. The request's total_procs
  /// (or the machine size) bounds the search. Memoized whole under
  /// (fingerprint, target) exactly like Frontier.
  ProcCountResult MinProcs(const MapRequest& request,
                           double target_throughput,
                           SweepStats* stats = nullptr);

  /// Fingerprint of `request` (also computed by Map); 0 when the request
  /// is not fingerprintable (custom predicate). The chain enters as
  /// `chain_text` when set, else as SerializeChain of `chain`.
  std::uint64_t Fingerprint(const MapRequest& request) const;

  SolutionCache& cache() { return cache_; }
  const SolutionCache& cache() const { return cache_; }
  const EngineConfig& config() const { return config_; }
  /// Single-flight dedup activity (engine.singleflight.* counters'
  /// aggregate twin, available when metrics are disabled).
  SingleFlightStats single_flight_stats() const {
    return single_flight_.stats();
  }

  /// Process-wide engine used by the CLI and tools, so repeated commands
  /// in one process share the cache.
  static MappingEngine& Shared();

 private:
  /// Map's body. With `placed` non-null, also places the solve (see
  /// MapAndPlace) into it and re-scores the response when placement
  /// changed the mapping.
  MapResponse Solve(const MapRequest& request, Mapping* placed);

  /// Warm-pool key of `request`: the request fingerprint MINUS the chain
  /// serialization (see warm_pool_ below).
  std::uint64_t WarmPoolKey(const MapRequest& request, int procs) const;
  bool WarmPoolContains(std::uint64_t key);

  EngineConfig config_;
  SolutionCache cache_;
  /// Leader-election table collapsing concurrent identical solves
  /// (engine/single_flight.h); consulted only after a cache miss on
  /// cacheable requests.
  SingleFlightGroup single_flight_;

  /// Whole-sweep memoization (Frontier / MinProcs), FIFO-bounded at
  /// config_.cache_capacity entries each. Sweep results are small (a
  /// handful of mappings), so value storage is cheaper than re-deriving
  /// them from the per-solve cache would be.
  std::mutex sweep_mu_;
  std::unordered_map<std::uint64_t, std::vector<FrontierPoint>>
      frontier_cache_;
  std::deque<std::uint64_t> frontier_order_;
  std::unordered_map<std::uint64_t, ProcCountResult> sizing_cache_;
  std::deque<std::uint64_t> sizing_order_;

  /// Warm-start pool for incremental re-solves (MapperOptions::
  /// incremental): states keyed by the request fingerprint MINUS the chain
  /// serialization, so a re-solve of a perturbed chain — a repair remap
  /// after cost drift, a refinement iteration — finds the state captured
  /// by the previous solve of the same machine/options/budget and reuses
  /// the DP sweep's clean prefix. Entries are checked out exclusively
  /// (removed under the lock, re-attached after the solve), so concurrent
  /// requests never share mutable sweep state; a second concurrent request
  /// simply misses and solves cold. FIFO-bounded like the sweep caches.
  std::unordered_map<std::uint64_t, std::shared_ptr<WarmStartState>>
      warm_pool_;
  std::deque<std::uint64_t> warm_order_;
};

}  // namespace pipemap
