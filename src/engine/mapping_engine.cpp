#include "engine/mapping_engine.h"

#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <utility>

#include "core/brute_force.h"
#include "core/dp_mapper.h"
#include "core/greedy_mapper.h"
#include "engine/fingerprint.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/json_writer.h"
#include "support/metrics.h"
#include "support/trace_context.h"
#include "support/tracer.h"

namespace pipemap {

const char* ToString(MapObjective objective) {
  switch (objective) {
    case MapObjective::kThroughput:
      return "throughput";
    case MapObjective::kLatency:
      return "latency";
    case MapObjective::kLatencyWithFloor:
      return "latency_with_floor";
  }
  return "unknown";
}

const char* ToString(SolverPolicy policy) {
  switch (policy) {
    case SolverPolicy::kAuto:
      return "auto";
    case SolverPolicy::kDp:
      return "dp";
    case SolverPolicy::kGreedy:
      return "greedy";
    case SolverPolicy::kBrute:
      return "brute";
    case SolverPolicy::kLatency:
      return "latency";
  }
  return "unknown";
}

void SetPolicyByName(std::string_view algorithm, std::string_view objective,
                     std::optional<double> floor, MapRequest* request) {
  if (objective == "latency") {
    request->solver = SolverPolicy::kLatency;
    request->objective =
        floor ? MapObjective::kLatencyWithFloor : MapObjective::kLatency;
    if (floor) request->min_throughput = *floor;
    return;
  }
  if (objective != "throughput") {
    throw InvalidArgument("unknown objective: " + std::string(objective));
  }
  request->objective = MapObjective::kThroughput;
  for (const SolverPolicy policy : {SolverPolicy::kAuto, SolverPolicy::kDp,
                                    SolverPolicy::kGreedy,
                                    SolverPolicy::kBrute}) {
    if (algorithm == ToString(policy)) {
      request->solver = policy;
      return;
    }
  }
  throw InvalidArgument("unknown algorithm: " + std::string(algorithm));
}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Whether the one solver `stage` names can answer `objective`: the DP
/// and greedy maximize throughput, the latency DP minimizes latency, and
/// the exhaustive reference does either.
bool StageSupports(SolverPolicy stage, MapObjective objective) {
  switch (stage) {
    case SolverPolicy::kDp:
    case SolverPolicy::kGreedy:
      return objective == MapObjective::kThroughput;
    case SolverPolicy::kLatency:
      return objective != MapObjective::kThroughput;
    case SolverPolicy::kBrute:
      return true;
    case SolverPolicy::kAuto:
      break;
  }
  return false;
}

/// Sets the numbers every response reports for `mapping`: throughput,
/// latency, and the objective value (bottleneck effective response in
/// seconds for throughput, path latency in seconds otherwise).
void Score(const Evaluator& eval, const Mapping& mapping,
           MapObjective objective, MapResponse* out) {
  out->throughput = eval.Throughput(mapping);
  out->latency = eval.Latency(mapping);
  out->objective_value = objective == MapObjective::kThroughput
                             ? eval.BottleneckResponse(mapping)
                             : out->latency;
}

/// Runs the one solver `stage` names and normalizes its result: the
/// mapping, its Score, work, pruned cells, and whether the deadline
/// interrupted it. Solvers throw pipemap::Infeasible/ResourceLimit.
MapResponse RunStage(SolverPolicy stage, const MapRequest& request,
                     const Evaluator& eval, int procs,
                     const MapperOptions& options) {
  MapResult r;
  const auto take = [&r](auto&& latency_result) {
    r.mapping = std::move(latency_result.mapping);
    r.work = latency_result.work;
    r.timed_out = latency_result.timed_out;
  };
  const bool floored = request.objective == MapObjective::kLatencyWithFloor;
  switch (stage) {
    case SolverPolicy::kDp:  // exact throughput (paper Section 3)
      PIPEMAP_COUNTER_ADD("engine.solver.dp", 1);
      r = DpMapper(options).Map(eval, procs);
      break;
    case SolverPolicy::kGreedy: {  // heuristic throughput (Section 4)
      PIPEMAP_COUNTER_ADD("engine.solver.greedy", 1);
      GreedyOptions greedy;
      greedy.base = options;
      r = GreedyMapper(greedy).Map(eval, procs);
      break;
    }
    case SolverPolicy::kBrute: {  // exhaustive reference, any objective
      PIPEMAP_COUNTER_ADD("engine.solver.brute", 1);
      BruteForceOptions brute;
      brute.base = options;
      if (request.objective == MapObjective::kThroughput) {
        r = BruteForceMapper(brute).Map(eval, procs);
      } else {
        take(BruteForceMinLatency(
            eval, procs, floored ? request.min_throughput : 0.0, brute));
      }
      break;
    }
    case SolverPolicy::kLatency: {  // exact latency, optionally floored
      PIPEMAP_COUNTER_ADD("engine.solver.latency", 1);
      const LatencyMapper mapper(options);
      take(floored ? mapper.MinLatencyWithThroughput(eval, procs,
                                                     request.min_throughput)
                   : mapper.MinLatency(eval, procs));
      break;
    }
    case SolverPolicy::kAuto:
      PIPEMAP_CHECK(false, "MappingEngine: kAuto is not a solver");
  }
  MapResponse result;
  Score(eval, r.mapping, request.objective, &result);
  result.mapping = std::move(r.mapping);
  result.work = r.work;
  result.pruned_cells = r.pruned_cells;
  result.timed_out = r.timed_out;
  return result;
}

void ValidateRequest(const MapRequest& request) {
  PIPEMAP_CHECK(request.chain != nullptr || !request.chain_text.empty(),
                "MapRequest: chain is required");
  PIPEMAP_CHECK(request.objective != MapObjective::kLatencyWithFloor ||
                    request.min_throughput > 0.0,
                "MapRequest: latency_with_floor needs min_throughput > 0");
}

/// The request's chain: `request.chain`, or `chain_text` parsed into
/// `storage` (throws pipemap::InvalidArgument on malformed text).
const TaskChain& ResolveChain(const MapRequest& request,
                              std::optional<TaskChain>* storage) {
  if (request.chain != nullptr) return *request.chain;
  return storage->emplace(ParseChain(std::string(request.chain_text)));
}

/// Sets `*placed` to the mapping to run that `entry` records: the solve
/// (already in `out`) when placement kept it, else the placed mapping,
/// whose re-evaluated numbers replace the solve's in `out` (and which no
/// solver certified).
void PlaceFrom(const CachedSolution& entry, MapResponse* out,
               Mapping* placed) {
  if (entry.placed_mapping_text.empty()) {
    *placed = out->mapping;
    return;
  }
  *placed = ParseMapping(entry.placed_mapping_text);
  out->objective_value = entry.placed_objective_value;
  out->throughput = entry.placed_throughput;
  out->latency = entry.placed_latency;
  out->exact = false;
}

/// Sets `out` to the answer `entry` records: the solve's mapping, numbers
/// and provenance, then, with `placed` non-null, its placement.
void AnswerFrom(const CachedSolution& entry, MapResponse* out,
                Mapping* placed) {
  out->mapping = ParseMapping(entry.mapping_text);
  out->objective_value = entry.objective_value;
  out->throughput = entry.throughput;
  out->latency = entry.latency;
  out->solver = entry.solver;
  out->exact = entry.exact;
  if (placed != nullptr) PlaceFrom(entry, out, placed);
}

/// Resolved MapperOptions: the machine-derived feasibility predicate is
/// installed here, after fingerprinting, so it never leaks into the cache
/// key (the machine serialization already covers it).
MapperOptions ResolveOptions(const MapRequest& request) {
  MapperOptions options = request.options;
  if (request.machine_feasibility && !options.proc_feasible) {
    options.proc_feasible =
        FeasibilityChecker(request.machine).ProcCountPredicate();
  }
  return options;
}

/// RAII around a single-flight leader's obligation to publish: unless a
/// real result is handed over, the destructor publishes "no result" so
/// followers are never left waiting when the leader's solve throws.
/// Constructed with a null flight (non-leaders), it does nothing.
class FlightPublisher {
 public:
  FlightPublisher(SingleFlightGroup* group, std::uint64_t key,
                  std::shared_ptr<SingleFlightGroup::Flight> flight)
      : group_(group), key_(key), flight_(std::move(flight)) {}
  ~FlightPublisher() {
    if (flight_) group_->Publish(key_, flight_, std::nullopt);
  }
  FlightPublisher(const FlightPublisher&) = delete;
  FlightPublisher& operator=(const FlightPublisher&) = delete;

  void Publish(CachedSolution result) {
    if (!flight_) return;
    group_->Publish(key_, flight_, std::move(result));
    flight_.reset();
  }

 private:
  SingleFlightGroup* group_;
  std::uint64_t key_;
  std::shared_ptr<SingleFlightGroup::Flight> flight_;
};

}  // namespace

int MapRequest::ResolvedProcs() const {
  const int procs = total_procs > 0 ? total_procs : machine.total_procs();
  PIPEMAP_CHECK(procs >= 1, "MapRequest: processor budget must be positive");
  return procs;
}

std::string MapResponse::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("solver").String(solver);
  w.Key("objective_value").Double(objective_value);
  w.Key("throughput").Double(throughput);
  w.Key("latency_s").Double(latency);
  w.Key("exact").Bool(exact);
  w.Key("cache_hit").Bool(cache_hit);
  w.Key("cache_tier").String(cache_tier);
  w.Key("shared_solve").Bool(shared_solve);
  w.Key("cacheable").Bool(cacheable);
  w.Key("fingerprint").String(FingerprintHex(fingerprint));
  w.Key("warm").BeginObject();
  w.Key("tables_built").UInt(warm_tables_built);
  w.Key("tables_reused").UInt(warm_tables_reused);
  w.Key("incumbents_seeded").UInt(warm_incumbents_seeded);
  w.EndObject();
  w.Key("budget_exhausted").Bool(budget_exhausted);
  w.Key("timed_out").Bool(timed_out);
  w.Key("solve_seconds").Double(solve_seconds);
  w.Key("work").UInt(work);
  w.Key("pruned_cells").UInt(pruned_cells);
  if (trace_id != 0) w.Key("trace_id").String(FormatTraceId(trace_id));
  w.EndObject();
  return w.str();
}

MappingEngine::MappingEngine(EngineConfig config)
    : config_(config),
      cache_(config.cache_capacity, config.cache_shards) {
  if (!config_.cache_dir.empty()) {
    DiskPersistOptions persist;
    persist.dir = config_.cache_dir;
    persist.max_bytes = config_.cache_dir_max_bytes;
    cache_.EnablePersistence(persist);
  }
}

MappingEngine& MappingEngine::Shared() {
  static MappingEngine engine;
  return engine;
}

std::uint64_t MappingEngine::Fingerprint(const MapRequest& request) const {
  ValidateRequest(request);
  if (request.options.proc_feasible) return 0;
  const int procs = request.ResolvedProcs();
  FingerprintBuilder fb;
  fb.Append("pipemap-map-request v1");
  // Canonical chain text is exactly what SerializeChain would produce, so
  // both forms of a request share one key (and one disk entry).
  if (!request.chain_text.empty()) {
    fb.Append(request.chain_text);
  } else {
    fb.Append(SerializeChain(*request.chain, procs));
  }
  fb.Append(SerializeMachine(request.machine));
  fb.Append(SerializeMapperOptions(request.options));
  fb.Append(static_cast<int>(request.objective));
  fb.Append(static_cast<int>(request.solver));
  fb.Append(procs);
  fb.Append(request.min_throughput);
  fb.Append(request.machine_feasibility);
  return fb.value();
}

MapResponse MappingEngine::Map(const MapRequest& request) {
  return Solve(request, nullptr);
}

PlacedMapping MappingEngine::MapAndPlace(const MapRequest& request) {
  PlacedMapping placed;
  placed.response = Solve(request, &placed.mapping);
  return placed;
}

MapResponse MappingEngine::Solve(const MapRequest& request,
                                 Mapping* placed) {
  ValidateRequest(request);
  const auto start = std::chrono::steady_clock::now();
  PIPEMAP_COUNTER_ADD("engine.map.calls", 1);
  // The request's trace id rides the span's arg, so trace_join.py can
  // correlate this solve with the server-side spans of the same request
  // (-1 = untraced; the exporter omits negative args).
  PIPEMAP_TRACE_SPAN("engine.map", "engine",
                     request.trace_id != 0
                         ? static_cast<std::int64_t>(request.trace_id)
                         : -1);
  const int procs = request.ResolvedProcs();

  MapResponse response;
  response.trace_id = request.trace_id;
  response.cacheable = request.use_cache && !request.options.proc_feasible;
  if (response.cacheable) {
    response.fingerprint = Fingerprint(request);
    if (std::optional<CachedSolution> hit =
            cache_.Lookup(response.fingerprint)) {
      AnswerFrom(*hit, &response, placed);
      response.cache_hit = true;
      response.cache_tier = hit->from_disk ? "disk" : "memory";
      response.solve_seconds = SecondsSince(start);
      return response;
    }
  }

  // Past the cache: the solve needs the chain itself. Parsing here, before
  // joining a flight, keeps malformed text from ever leading a flight or
  // reaching the cache.
  std::optional<TaskChain> parsed_chain;
  const TaskChain& chain = ResolveChain(request, &parsed_chain);

  const bool has_budget = Deadline::HasBudget(request.time_budget_s);

  // Single-flight: a cacheable miss joins the in-progress flight for its
  // fingerprint. The leader falls through and solves; a follower parks on
  // the flight (bounded by its remaining budget, when it has one) and, if
  // the leader publishes a clean result, returns it with shared_solve
  // provenance — one solve, N answers. A follower that times out or whose
  // leader failed solves for itself below, exactly as if single-flight
  // did not exist.
  std::shared_ptr<SingleFlightGroup::Flight> flight;
  bool flight_leader = false;
  if (response.cacheable) {
    const auto joined = single_flight_.Join(response.fingerprint);
    flight = joined.first;
    flight_leader = joined.second;
    if (!flight_leader) {
      double wait_s = 0.0;  // no budget: wait as long as the solve takes
      bool can_wait = true;
      if (has_budget) {
        wait_s = request.time_budget_s - SecondsSince(start);
        can_wait = wait_s > 0.0;
      }
      if (can_wait) {
        if (std::optional<CachedSolution> shared =
                single_flight_.Wait(flight, wait_s)) {
          AnswerFrom(*shared, &response, placed);
          response.shared_solve = true;
          response.solve_seconds = SecondsSince(start);
          return response;
        }
      }
      flight.reset();
    }
  }
  // A leader that throws must still wake its followers: the publisher's
  // destructor hands them "no result" (each then solves for itself)
  // unless a clean result is published at the bottom.
  FlightPublisher publisher(&single_flight_, response.fingerprint,
                            flight_leader ? flight : nullptr);

  // Cold path: resolve options, build the evaluator, run the portfolio.
  MapperOptions options = ResolveOptions(request);
  // A binding budget (positive finite; 0/unset means unlimited — see
  // MapRequest::time_budget_s) becomes a cooperative deadline threaded
  // into the solver inner loops, anchored at this request's start so the
  // in-solver checks and the between-stage check below agree. An
  // explicitly supplied options.deadline wins (the caller measured its own
  // anchor).
  if (!options.deadline && has_budget) {
    options.deadline = Deadline::AfterAnchor(start, request.time_budget_s);
  }
  const Evaluator eval(chain, procs, request.machine.node_memory_bytes,
                       options.num_threads);

  // One warm-start state threads greedy's incumbent into the DP (and any
  // caller-provided state carries across engine calls on the same chain).
  std::shared_ptr<WarmStartState> warm = options.warm;
  if (!warm) {
    warm = std::make_shared<WarmStartState>();
  }
  options.warm = warm;
  const std::uint64_t built0 = warm->tables_built;
  const std::uint64_t reused0 = warm->tables_reused;
  const std::uint64_t seeded0 = warm->incumbents_seeded;

  // Portfolio stage list.
  std::vector<SolverPolicy> stages;
  if (request.solver != SolverPolicy::kAuto) {
    stages.push_back(request.solver);
  } else if (request.objective == MapObjective::kThroughput) {
    stages = {SolverPolicy::kGreedy, SolverPolicy::kDp};
    if (chain.size() <= config_.brute_max_tasks &&
        procs <= config_.brute_max_procs) {
      stages.push_back(SolverPolicy::kBrute);
    }
  } else {
    stages.push_back(SolverPolicy::kLatency);
  }

  std::optional<MapResponse> best;
  std::string ran;
  std::exception_ptr last_error;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const SolverPolicy stage = stages[i];
    PIPEMAP_CHECK(StageSupports(stage, request.objective),
                  "MappingEngine: solver '" + std::string(ToString(stage)) +
                      "' does not support objective " +
                      ToString(request.objective));
    if (i > 0 && has_budget && SecondsSince(start) > request.time_budget_s) {
      response.budget_exhausted = true;
      break;
    }
    try {
      MapResponse result = RunStage(stage, request, eval, procs, options);
      if (!ran.empty()) ran += "+";
      ran += ToString(stage);
      // A stage the deadline interrupted returned an incumbent, not a
      // certified optimum: it cannot claim exactness or win ties. Every
      // solver but greedy is exact.
      const bool stage_exact =
          stage != SolverPolicy::kGreedy && !result.timed_out;
      response.timed_out = response.timed_out || result.timed_out;
      // Keep the better objective; an exact solver's result wins ties so
      // the response can claim optimality.
      const bool keep =
          !best || result.objective_value < best->objective_value ||
          (stage_exact &&
           result.objective_value <= best->objective_value);
      if (keep) {
        response.exact = stage_exact;
        best = std::move(result);
        // Feed the incumbent forward for the next stage's pruning bound.
        warm->incumbent = best->mapping;
      }
    } catch (const Infeasible&) {
      last_error = std::current_exception();
    } catch (const ResourceLimit&) {
      last_error = std::current_exception();
    }
  }
  if (!best) {
    if (last_error) std::rethrow_exception(last_error);
    throw Infeasible("MappingEngine: no solver produced a mapping");
  }

  response.mapping = std::move(best->mapping);
  response.objective_value = best->objective_value;
  response.throughput = best->throughput;
  response.latency = best->latency;
  response.work = best->work;
  response.pruned_cells = best->pruned_cells;
  response.solver = ran;
  response.warm_tables_built = warm->tables_built - built0;
  response.warm_tables_reused = warm->tables_reused - reused0;
  response.warm_incumbents_seeded = warm->incumbents_seeded - seeded0;
  response.solve_seconds = SecondsSince(start);

  if (response.timed_out) PIPEMAP_COUNTER_ADD("engine.map.timed_out", 1);

  CachedSolution entry;
  entry.mapping_text = SerializeMapping(response.mapping);
  entry.objective_value = response.objective_value;
  entry.throughput = response.throughput;
  entry.latency = response.latency;
  entry.solver = response.solver;
  entry.exact = response.exact;
  // Placement, while the evaluator is at hand: drop replicas until the
  // solve packs onto the machine and score what is left. A solve that no
  // placement fits is not cached, so every request re-derives the same
  // answer: Map the solve, MapAndPlace the Infeasible error.
  std::exception_ptr placement_error;
  if (request.machine_feasibility) {
    try {
      const Mapping mapping = FeasibilityChecker(request.machine)
                                  .MakeFeasible(response.mapping, eval);
      if (mapping != response.mapping) {
        MapResponse scored;
        Score(eval, mapping, request.objective, &scored);
        entry.placed_mapping_text = SerializeMapping(mapping);
        entry.placed_objective_value = scored.objective_value;
        entry.placed_throughput = scored.throughput;
        entry.placed_latency = scored.latency;
      }
    } catch (const Infeasible&) {
      placement_error = std::current_exception();
    }
  }
  if (placed != nullptr) {
    if (placement_error) std::rethrow_exception(placement_error);
    PlaceFrom(entry, &response, placed);
  }

  // Budget-truncated portfolios and deadline-interrupted solves are not
  // cached: the same request with a looser budget must be able to produce
  // the exact answer later.
  if (response.cacheable && !response.budget_exhausted &&
      !response.timed_out && !placement_error) {
    cache_.Insert(response.fingerprint, entry);
    // Only clean (cacheable) results fan out to followers; unclean ones
    // fall to the publisher destructor's "no result" and each follower
    // re-solves under its own budget.
    publisher.Publish(std::move(entry));
  }
  return response;
}

std::vector<FrontierPoint> MappingEngine::Frontier(const MapRequest& request,
                                                   int num_points,
                                                   SweepStats* stats) {
  ValidateRequest(request);
  PIPEMAP_COUNTER_ADD("engine.frontier.calls", 1);
  const int procs = request.ResolvedProcs();

  // Whole-sweep memoization: a repeated sweep on an unchanged problem is
  // answered without a single DP solve. The key extends the request
  // fingerprint with the sweep parameter, under the same cacheability
  // rule as Map (a custom predicate cannot be fingerprinted).
  const bool cacheable = request.use_cache && !request.options.proc_feasible;
  std::uint64_t key = 0;
  if (cacheable) {
    FingerprintBuilder fb;
    fb.Append("pipemap-frontier-sweep v1");
    fb.Append(Fingerprint(request));
    fb.Append(num_points);
    key = fb.value();
    std::lock_guard<std::mutex> lock(sweep_mu_);
    const auto it = frontier_cache_.find(key);
    if (it != frontier_cache_.end()) {
      PIPEMAP_COUNTER_ADD("engine.frontier.cache_hits", 1);
      if (stats != nullptr) ++stats->cache_hits;
      return it->second;
    }
    PIPEMAP_COUNTER_ADD("engine.frontier.cache_misses", 1);
  }

  MapperOptions options = ResolveOptions(request);
  std::shared_ptr<WarmStartState> warm = options.warm;
  if (!warm) {
    warm = std::make_shared<WarmStartState>();
    options.warm = warm;
  }
  const std::uint64_t built0 = warm->tables_built;
  const std::uint64_t reused0 = warm->tables_reused;
  const std::uint64_t seeded0 = warm->incumbents_seeded;

  std::optional<TaskChain> parsed_chain;
  const Evaluator eval(ResolveChain(request, &parsed_chain), procs,
                       request.machine.node_memory_bytes,
                       options.num_threads);
  std::vector<FrontierPoint> frontier =
      LatencyThroughputFrontier(eval, procs, num_points, options);
  if (stats != nullptr) {
    stats->warm_tables_built += warm->tables_built - built0;
    stats->warm_tables_reused += warm->tables_reused - reused0;
    stats->warm_incumbents_seeded += warm->incumbents_seeded - seeded0;
    // Every DP run either builds or reuses the range tables exactly once.
    stats->solves += (warm->tables_built - built0) +
                     (warm->tables_reused - reused0);
  }
  if (cacheable) {
    std::lock_guard<std::mutex> lock(sweep_mu_);
    if (frontier_cache_.size() >= config_.cache_capacity &&
        !frontier_order_.empty()) {
      frontier_cache_.erase(frontier_order_.front());
      frontier_order_.pop_front();
    }
    if (frontier_cache_.emplace(key, frontier).second) {
      frontier_order_.push_back(key);
    }
  }
  return frontier;
}

ProcCountResult MappingEngine::MinProcs(const MapRequest& request,
                                        double target_throughput,
                                        SweepStats* stats) {
  ValidateRequest(request);
  PIPEMAP_COUNTER_ADD("engine.min_procs.calls", 1);
  const int procs = request.ResolvedProcs();

  const bool cacheable = request.use_cache && !request.options.proc_feasible;
  std::uint64_t key = 0;
  if (cacheable) {
    FingerprintBuilder fb;
    fb.Append("pipemap-sizing-sweep v1");
    fb.Append(Fingerprint(request));
    fb.Append(target_throughput);
    key = fb.value();
    std::lock_guard<std::mutex> lock(sweep_mu_);
    const auto it = sizing_cache_.find(key);
    if (it != sizing_cache_.end()) {
      PIPEMAP_COUNTER_ADD("engine.min_procs.cache_hits", 1);
      if (stats != nullptr) ++stats->cache_hits;
      return it->second;
    }
    PIPEMAP_COUNTER_ADD("engine.min_procs.cache_misses", 1);
  }

  MapperOptions options = ResolveOptions(request);
  std::shared_ptr<WarmStartState> warm = options.warm;
  if (!warm) {
    warm = std::make_shared<WarmStartState>();
    options.warm = warm;
  }
  const std::uint64_t built0 = warm->tables_built;
  const std::uint64_t reused0 = warm->tables_reused;
  const std::uint64_t seeded0 = warm->incumbents_seeded;

  std::optional<TaskChain> parsed_chain;
  const Evaluator eval(ResolveChain(request, &parsed_chain), procs,
                       request.machine.node_memory_bytes,
                       options.num_threads);
  ProcCountResult result =
      MinProcessorsForThroughput(eval, procs, target_throughput, options);
  if (stats != nullptr) {
    stats->warm_tables_built += warm->tables_built - built0;
    stats->warm_tables_reused += warm->tables_reused - reused0;
    stats->warm_incumbents_seeded += warm->incumbents_seeded - seeded0;
    stats->solves += (warm->tables_built - built0) +
                     (warm->tables_reused - reused0);
  }
  if (cacheable) {
    std::lock_guard<std::mutex> lock(sweep_mu_);
    if (sizing_cache_.size() >= config_.cache_capacity &&
        !sizing_order_.empty()) {
      sizing_cache_.erase(sizing_order_.front());
      sizing_order_.pop_front();
    }
    if (sizing_cache_.emplace(key, result).second) {
      sizing_order_.push_back(key);
    }
  }
  return result;
}

}  // namespace pipemap
