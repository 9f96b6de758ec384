// MappingEngine facade tests: solver portfolio, cache identity, warm-start
// sweeps, and provenance.
#include "engine/mapping_engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/latency_mapper.h"
#include "costmodel/cost_function.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/metrics.h"
#include "workloads/fft_hist.h"
#include "workloads/radar.h"
#include "workloads/stereo.h"
#include "workloads/synthetic.h"
#include "../json_util.h"
#include "../temp_dir.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::IsValidJson;
using testing::kTestNodeMemory;
using testing::TaskSpec;

/// A small machine whose node memory matches the BuildChain convention, so
/// memory minima in TaskSpec::min_procs behave as written.
MachineConfig SmallMachine() {
  MachineConfig machine;
  machine.name = "test4x4";
  machine.grid_rows = 4;
  machine.grid_cols = 4;
  machine.node_memory_bytes = kTestNodeMemory;
  return machine;
}

TaskChain ThreeTaskChain() {
  return BuildChain(
      {TaskSpec{0.0, 1.0, 0.01, 1, true}, TaskSpec{0.0, 2.0, 0.01, 1, true},
       TaskSpec{0.0, 1.0, 0.01, 1, true}},
      {EdgeSpec{0.1, 0.0, 0.0, 0.2, 0, 0, 0, 0},
       EdgeSpec{0.1, 0.0, 0.0, 0.2, 0, 0, 0, 0}});
}

MapRequest RequestFor(const TaskChain& chain, const MachineConfig& machine) {
  MapRequest request;
  request.chain = &chain;
  request.machine = machine;
  return request;
}

TEST(SolverRegistryTest, BuiltInSolversAreRegistered) {
  // The names the CLI and the server share resolve to the policy whose
  // ToString is that name.
  for (const char* name : {"dp", "greedy", "brute", "auto"}) {
    MapRequest request;
    SetPolicyByName(name, "throughput", std::nullopt, &request);
    EXPECT_STREQ(ToString(request.solver), name);
    EXPECT_EQ(request.objective, MapObjective::kThroughput);
  }
  MapRequest latency;
  SetPolicyByName("dp", "latency", std::nullopt, &latency);
  EXPECT_STREQ(ToString(latency.solver), "latency");
  EXPECT_EQ(latency.objective, MapObjective::kLatency);
  SetPolicyByName("auto", "latency", 40.0, &latency);
  EXPECT_EQ(latency.objective, MapObjective::kLatencyWithFloor);
  EXPECT_EQ(latency.min_throughput, 40.0);

  MapRequest rejected;
  EXPECT_THROW(
      SetPolicyByName("nonsense", "throughput", std::nullopt, &rejected),
      InvalidArgument);
  EXPECT_THROW(SetPolicyByName("dp", "nonsense", std::nullopt, &rejected),
               InvalidArgument);
}

TEST(SolverRegistryTest, CapabilitiesMatchTheAlgorithms) {
  const TaskChain chain = ThreeTaskChain();
  const MachineConfig machine = SmallMachine();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, machine);
  request.solver = SolverPolicy::kDp;
  EXPECT_TRUE(engine.Map(request).exact);
  request.solver = SolverPolicy::kGreedy;
  EXPECT_FALSE(engine.Map(request).exact);

  request.objective = MapObjective::kLatency;
  request.solver = SolverPolicy::kBrute;
  EXPECT_EQ(engine.Map(request).solver, "brute");
  request.solver = SolverPolicy::kDp;
  EXPECT_THROW(engine.Map(request), InvalidArgument);
}

TEST(MappingEngineTest, AllFourSolversReachable) {
  const TaskChain chain = ThreeTaskChain();
  const MachineConfig machine = SmallMachine();
  MappingEngine engine;

  for (const SolverPolicy policy :
       {SolverPolicy::kDp, SolverPolicy::kGreedy, SolverPolicy::kBrute}) {
    MapRequest request = RequestFor(chain, machine);
    request.solver = policy;
    const MapResponse response = engine.Map(request);
    EXPECT_EQ(response.solver, ToString(policy));
    EXPECT_GT(response.throughput, 0.0);
    EXPECT_TRUE(response.mapping.IsValidFor(chain.size()));
  }

  MapRequest request = RequestFor(chain, machine);
  request.solver = SolverPolicy::kLatency;
  request.objective = MapObjective::kLatency;
  const MapResponse response = engine.Map(request);
  EXPECT_EQ(response.solver, "latency");
  EXPECT_GT(response.latency, 0.0);
}

TEST(MappingEngineTest, ExactSolversAgreeThroughTheFacade) {
  const TaskChain chain = ThreeTaskChain();
  const MachineConfig machine = SmallMachine();
  MappingEngine engine;

  MapRequest dp = RequestFor(chain, machine);
  dp.solver = SolverPolicy::kDp;
  MapRequest brute = dp;
  brute.solver = SolverPolicy::kBrute;
  const MapResponse dp_response = engine.Map(dp);
  const MapResponse brute_response = engine.Map(brute);
  EXPECT_NEAR(dp_response.throughput, brute_response.throughput, 1e-12);
  EXPECT_TRUE(dp_response.exact);
  EXPECT_TRUE(brute_response.exact);
}

TEST(MappingEngineTest, AutoRunsGreedyThenDpAndIsExact) {
  const TaskChain chain = ThreeTaskChain();
  const MachineConfig machine = SmallMachine();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, machine);
  request.solver = SolverPolicy::kAuto;
  const MapResponse response = engine.Map(request);
  // 3 tasks on 16 procs: above brute_max_procs, so greedy + dp only.
  EXPECT_EQ(response.solver, "greedy+dp");
  EXPECT_TRUE(response.exact);

  MapRequest dp = request;
  dp.solver = SolverPolicy::kDp;
  const MapResponse dp_response = engine.Map(dp);
  EXPECT_NEAR(response.throughput, dp_response.throughput, 1e-12);
}

TEST(MappingEngineTest, AutoCertifiesWithBruteOnTinyInstances) {
  const TaskChain chain = BuildChain(
      {TaskSpec{0.0, 1.0, 0.0, 1, true}, TaskSpec{0.0, 1.0, 0.0, 1, true}},
      {EdgeSpec{}});
  MachineConfig machine = SmallMachine();
  machine.grid_rows = 2;
  machine.grid_cols = 2;  // 4 procs <= brute_max_procs
  MappingEngine engine;

  MapRequest request = RequestFor(chain, machine);
  request.solver = SolverPolicy::kAuto;
  const MapResponse response = engine.Map(request);
  EXPECT_EQ(response.solver, "greedy+dp+brute");
  EXPECT_TRUE(response.exact);
}

TEST(MappingEngineTest, AutoLatencyUsesLatencySolver) {
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;
  MapRequest request = RequestFor(chain, SmallMachine());
  request.objective = MapObjective::kLatency;
  const MapResponse response = engine.Map(request);
  EXPECT_EQ(response.solver, "latency");
  EXPECT_TRUE(response.exact);
  EXPECT_NEAR(response.objective_value, response.latency, 1e-12);
}

TEST(MappingEngineTest, CachedMappingIsByteIdenticalToRecomputed) {
  const TaskChain chain = ThreeTaskChain();
  const MachineConfig machine = SmallMachine();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, machine);
  request.solver = SolverPolicy::kDp;
  const MapResponse cold = engine.Map(request);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(cold.cacheable);

  const MapResponse warm = engine.Map(request);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  // Byte identity: the serialized mappings match exactly.
  EXPECT_EQ(SerializeMapping(warm.mapping), SerializeMapping(cold.mapping));
  EXPECT_EQ(warm.throughput, cold.throughput);
  EXPECT_EQ(warm.objective_value, cold.objective_value);
  EXPECT_EQ(warm.solver, cold.solver);

  // And against a fresh, cache-bypassing solve.
  MapRequest fresh = request;
  fresh.use_cache = false;
  const MapResponse recomputed = engine.Map(fresh);
  EXPECT_FALSE(recomputed.cache_hit);
  EXPECT_EQ(SerializeMapping(recomputed.mapping),
            SerializeMapping(warm.mapping));

  const SolutionCacheStats stats = engine.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);  // use_cache=false never touches the cache
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(MappingEngineTest, FingerprintSeparatesProblems) {
  const TaskChain chain = ThreeTaskChain();
  const MachineConfig machine = SmallMachine();
  MappingEngine engine;

  MapRequest base = RequestFor(chain, machine);
  const std::uint64_t fp = engine.Fingerprint(base);

  MapRequest fewer_procs = base;
  fewer_procs.total_procs = 8;
  EXPECT_NE(engine.Fingerprint(fewer_procs), fp);

  MapRequest latency = base;
  latency.objective = MapObjective::kLatency;
  EXPECT_NE(engine.Fingerprint(latency), fp);

  MapRequest greedy = base;
  greedy.solver = SolverPolicy::kGreedy;
  EXPECT_NE(engine.Fingerprint(greedy), fp);

  MapRequest no_clustering = base;
  no_clustering.options.allow_clustering = false;
  EXPECT_NE(engine.Fingerprint(no_clustering), fp);

  MapRequest unconstrained = base;
  unconstrained.machine_feasibility = false;
  EXPECT_NE(engine.Fingerprint(unconstrained), fp);

  MapRequest bigger_machine = base;
  bigger_machine.machine.grid_rows = 8;
  EXPECT_NE(engine.Fingerprint(bigger_machine), fp);

  // Execution knobs must NOT move the fingerprint.
  MapRequest threaded = base;
  threaded.options.num_threads = 4;
  EXPECT_EQ(engine.Fingerprint(threaded), fp);
}

TEST(MappingEngineTest, CustomPredicateBypassesCache) {
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, SmallMachine());
  request.options.proc_feasible = [](int p) { return p <= 2; };
  EXPECT_EQ(engine.Fingerprint(request), 0u);

  const MapResponse first = engine.Map(request);
  EXPECT_FALSE(first.cacheable);
  const MapResponse second = engine.Map(request);
  EXPECT_FALSE(second.cache_hit);
  const SolutionCacheStats stats = engine.cache().stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
}

TEST(MappingEngineTest, TinyTimeBudgetStopsAfterGreedyAndIsNotCached) {
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kAuto;
  request.time_budget_s = 1e-9;
  const MapResponse response = engine.Map(request);
  EXPECT_EQ(response.solver, "greedy");
  EXPECT_TRUE(response.budget_exhausted);
  EXPECT_FALSE(response.exact);

  // The truncated answer must not poison the cache: re-asking with an
  // unlimited budget gets the exact portfolio, not a stale hit.
  MapRequest full = request;
  full.time_budget_s = std::numeric_limits<double>::infinity();
  const MapResponse exact = engine.Map(full);
  EXPECT_FALSE(exact.cache_hit);
  EXPECT_TRUE(exact.exact);
}

TEST(MappingEngineTest, NonPositiveBudgetMeansUnlimited) {
  // The pinned contract (Deadline::HasBudget): zero, negative, and
  // infinite budgets all mean "no budget". A caller that leaves a
  // protocol field at 0 gets the full portfolio, never a solve that
  // expires at the starting line.
  const TaskChain chain = ThreeTaskChain();
  for (const double budget :
       {0.0, -1.0, std::numeric_limits<double>::infinity()}) {
    MappingEngine engine;
    MapRequest request = RequestFor(chain, SmallMachine());
    request.solver = SolverPolicy::kAuto;
    request.time_budget_s = budget;
    const MapResponse response = engine.Map(request);
    EXPECT_FALSE(response.budget_exhausted) << "budget " << budget;
    EXPECT_FALSE(response.timed_out) << "budget " << budget;
    EXPECT_TRUE(response.exact) << "budget " << budget;
  }
}

TEST(MappingEngineTest, SolverDeadlineReturnsIncumbentWithProvenance) {
  // A deadline far below the exact DP's runtime interrupts the solve
  // mid-stage: the response is the heuristic incumbent, valid and usable,
  // flagged timed_out, never exact, and never cached.
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kDp;
  request.time_budget_s = 1e-9;
  const MapResponse truncated = engine.Map(request);
  EXPECT_TRUE(truncated.timed_out);
  EXPECT_FALSE(truncated.exact);
  EXPECT_TRUE(truncated.mapping.IsValidFor(chain.size()));
  EXPECT_GT(truncated.throughput, 0.0);
  EXPECT_NE(truncated.ToJson().find("\"timed_out\": true"),
            std::string::npos);

  // Re-asking without the deadline must solve fresh (no stale hit) and
  // certify; the incumbent can never beat the true optimum.
  MapRequest full = request;
  full.time_budget_s = std::numeric_limits<double>::infinity();
  const MapResponse exact = engine.Map(full);
  EXPECT_FALSE(exact.cache_hit);
  EXPECT_FALSE(exact.timed_out);
  EXPECT_TRUE(exact.exact);
  EXPECT_LE(exact.objective_value, truncated.objective_value + 1e-12);
}

TEST(MappingEngineTest, ExplicitDeadlineOptionTakesPrecedence) {
  // An already-expired MapperOptions::deadline interrupts even when the
  // request's own budget is unlimited.
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kDp;
  request.options.deadline = Deadline::After(0.0);
  const MapResponse response = engine.Map(request);
  EXPECT_TRUE(response.timed_out);
  EXPECT_TRUE(response.mapping.IsValidFor(chain.size()));
}

TEST(MappingEngineTest, CacheEvictsUnderPressure) {
  EngineConfig config;
  config.cache_capacity = 2;
  config.cache_shards = 1;
  MappingEngine engine(config);
  const TaskChain chain = ThreeTaskChain();

  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kGreedy;
  for (const int procs : {4, 6, 8, 10}) {
    request.total_procs = procs;
    engine.Map(request);
  }
  const SolutionCacheStats stats = engine.cache().stats();
  EXPECT_EQ(stats.inserts, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(MappingEngineTest, FrontierMatchesDirectSweepAndReusesTables) {
  const Workload radar = workloads::MakeRadar(CommMode::kMessage);
  MappingEngine engine;

  MapRequest request;
  request.chain = &radar.chain;
  request.machine = radar.machine;
  SweepStats stats;
  const std::vector<FrontierPoint> warm =
      engine.Frontier(request, 6, &stats);
  ASSERT_FALSE(warm.empty());
  EXPECT_GT(stats.warm_tables_reused, 0u);
  EXPECT_GT(stats.solves, stats.warm_tables_built);

  // Cold reference: the engine sweep must trace the identical frontier.
  const Evaluator eval(radar.chain, radar.machine.total_procs(),
                       radar.machine.node_memory_bytes);
  MapperOptions options;
  options.proc_feasible =
      FeasibilityChecker(radar.machine).ProcCountPredicate();
  const std::vector<FrontierPoint> cold =
      LatencyThroughputFrontier(eval, radar.machine.total_procs(), 6,
                                options);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].mapping, cold[i].mapping) << "point " << i;
    EXPECT_EQ(warm[i].throughput, cold[i].throughput);
    EXPECT_EQ(warm[i].latency, cold[i].latency);
  }
}

TEST(MappingEngineTest, FrontierRepeatAnsweredFromSweepCache) {
  const Workload radar = workloads::MakeRadar(CommMode::kMessage);
  MappingEngine engine;

  MapRequest request;
  request.chain = &radar.chain;
  request.machine = radar.machine;
  SweepStats first_stats;
  const std::vector<FrontierPoint> first =
      engine.Frontier(request, 5, &first_stats);
  EXPECT_EQ(first_stats.cache_hits, 0u);
  EXPECT_GT(first_stats.solves, 0u);

  SweepStats repeat_stats;
  const std::vector<FrontierPoint> repeat =
      engine.Frontier(request, 5, &repeat_stats);
  EXPECT_EQ(repeat_stats.cache_hits, 1u);
  EXPECT_EQ(repeat_stats.solves, 0u);
  ASSERT_EQ(repeat.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(repeat[i].mapping, first[i].mapping) << "point " << i;
    EXPECT_EQ(repeat[i].throughput, first[i].throughput);
    EXPECT_EQ(repeat[i].latency, first[i].latency);
  }

  // A different point count is a different sweep, and opting out of the
  // cache always solves.
  SweepStats other_stats;
  engine.Frontier(request, 4, &other_stats);
  EXPECT_EQ(other_stats.cache_hits, 0u);
  request.use_cache = false;
  SweepStats uncached_stats;
  engine.Frontier(request, 5, &uncached_stats);
  EXPECT_EQ(uncached_stats.cache_hits, 0u);
  EXPECT_GT(uncached_stats.solves, 0u);
}

TEST(MappingEngineTest, MinProcsRepeatAnsweredFromSweepCache) {
  const Workload radar = workloads::MakeRadar(CommMode::kMessage);
  MappingEngine engine;

  MapRequest request;
  request.chain = &radar.chain;
  request.machine = radar.machine;
  const double target = engine.Map(request).throughput / 2.0;

  SweepStats first_stats;
  const ProcCountResult first = engine.MinProcs(request, target, &first_stats);
  EXPECT_EQ(first_stats.cache_hits, 0u);
  EXPECT_GT(first_stats.solves, 0u);

  SweepStats repeat_stats;
  const ProcCountResult repeat =
      engine.MinProcs(request, target, &repeat_stats);
  EXPECT_EQ(repeat_stats.cache_hits, 1u);
  EXPECT_EQ(repeat_stats.solves, 0u);
  EXPECT_EQ(repeat.procs, first.procs);
  EXPECT_EQ(repeat.mapping, first.mapping);
  EXPECT_EQ(repeat.throughput, first.throughput);

  // A different target misses.
  SweepStats other_stats;
  engine.MinProcs(request, target * 1.5, &other_stats);
  EXPECT_EQ(other_stats.cache_hits, 0u);
}

// Regression: FFT-Hist 512 has memory minima that make module configs
// invalid under tight frontier floors, so the incumbent carried from an
// earlier floor lands on tables where a LATER module's config is invalid.
// Its evaluation must reject the clustering as infeasible (kInf), not
// reach the evaluator with a zero processor count.
TEST(MappingEngineTest, FrontierSurvivesInvalidWarmIncumbents) {
  const Workload fft = workloads::MakeFftHist(512, CommMode::kMessage);
  MappingEngine engine;

  MapRequest request;
  request.chain = &fft.chain;
  request.machine = fft.machine;
  SweepStats stats;
  const std::vector<FrontierPoint> warm =
      engine.Frontier(request, 6, &stats);
  ASSERT_FALSE(warm.empty());

  const Evaluator eval(fft.chain, fft.machine.total_procs(),
                       fft.machine.node_memory_bytes);
  MapperOptions options;
  options.proc_feasible =
      FeasibilityChecker(fft.machine).ProcCountPredicate();
  const std::vector<FrontierPoint> cold =
      LatencyThroughputFrontier(eval, fft.machine.total_procs(), 6, options);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].mapping, cold[i].mapping) << "point " << i;
    EXPECT_EQ(warm[i].throughput, cold[i].throughput);
    EXPECT_EQ(warm[i].latency, cold[i].latency);
  }
}

TEST(MappingEngineTest, MinProcsMatchesDirectSearch) {
  const Workload radar = workloads::MakeRadar(CommMode::kMessage);
  MappingEngine engine;

  MapRequest request;
  request.chain = &radar.chain;
  request.machine = radar.machine;

  // Target half the machine's best throughput.
  const MapResponse best = engine.Map(request);
  const double target = best.throughput / 2.0;

  SweepStats stats;
  const ProcCountResult sized = engine.MinProcs(request, target, &stats);
  EXPECT_GE(sized.throughput, target);
  EXPECT_GT(stats.solves, 1u);
  EXPECT_GT(stats.warm_tables_reused, 0u);

  const Evaluator eval(radar.chain, radar.machine.total_procs(),
                       radar.machine.node_memory_bytes);
  MapperOptions options;
  options.proc_feasible =
      FeasibilityChecker(radar.machine).ProcCountPredicate();
  const ProcCountResult cold = MinProcessorsForThroughput(
      eval, radar.machine.total_procs(), target, options);
  EXPECT_EQ(sized.procs, cold.procs);
  EXPECT_EQ(sized.mapping, cold.mapping);
}

TEST(MappingEngineTest, ProvenanceJsonIsValidAndComplete) {
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;
  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kAuto;
  const MapResponse response = engine.Map(request);
  const std::string json = response.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  for (const char* key :
       {"\"solver\"", "\"exact\"", "\"cache_hit\"", "\"cacheable\"",
        "\"fingerprint\"", "\"tables_built\"", "\"tables_reused\"",
        "\"incumbents_seeded\"", "\"budget_exhausted\"",
        "\"solve_seconds\"", "\"work\"", "\"pruned_cells\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(MappingEngineTest, InvalidRequestsThrow) {
  MappingEngine engine;
  MapRequest no_chain;
  EXPECT_THROW(engine.Map(no_chain), InvalidArgument);

  const TaskChain chain = ThreeTaskChain();
  MapRequest bad_floor = RequestFor(chain, SmallMachine());
  bad_floor.objective = MapObjective::kLatencyWithFloor;
  EXPECT_THROW(engine.Map(bad_floor), InvalidArgument);

  MapRequest floor = RequestFor(chain, SmallMachine());
  floor.objective = MapObjective::kLatencyWithFloor;
  floor.min_throughput = 0.5;
  EXPECT_NO_THROW(engine.Map(floor));
}

/// The chain with its last edge's communication costs scaled by `factor`
/// (a suffix-only perturbation, as a drifted cost model would produce).
TaskChain ScaleLastEdge(const TaskChain& chain, double factor) {
  const int edge = chain.size() - 2;
  ChainCostModel costs = chain.costs();
  std::shared_ptr<ScalarCost> icom(costs.IComFn(edge).Clone());
  std::shared_ptr<PairCost> ecom(costs.EComFn(edge).Clone());
  costs.SetEdge(
      edge,
      std::make_unique<CallbackScalarCost>(
          [icom, factor](int p) { return icom->Eval(p) * factor; }),
      std::make_unique<CallbackPairCost>([ecom, factor](int s, int r) {
        return ecom->Eval(s, r) * factor;
      }));
  return chain.WithCosts(std::move(costs));
}

TEST(MappingEngineTest, IncrementalWarmPoolReusesSweepAcrossRequests) {
  MappingEngine engine;
  const TaskChain chain = ThreeTaskChain();
  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kDp;
  request.use_cache = false;
  request.options.incremental = true;
  const MapResponse first = engine.Map(request);
  EXPECT_EQ(first.warm_sweeps_captured, 1u);
  EXPECT_EQ(first.warm_sweep_prefix_reused, 0u);

  // A perturbed chain keys to the same pool entry (the chain is excluded
  // from the pool key) and reuses the captured sweep's clean prefix.
  const TaskChain perturbed = ScaleLastEdge(chain, 1.05);
  MapRequest again = RequestFor(perturbed, SmallMachine());
  again.solver = SolverPolicy::kDp;
  again.use_cache = false;
  again.options.incremental = true;
  const MapResponse warm = engine.Map(again);
  EXPECT_EQ(warm.warm_sweep_prefix_reused, 1u);

  // Byte-identical to a cold solve of the perturbed chain.
  MappingEngine cold_engine;
  MapRequest cold = RequestFor(perturbed, SmallMachine());
  cold.solver = SolverPolicy::kDp;
  cold.use_cache = false;
  const MapResponse cold_response = cold_engine.Map(cold);
  EXPECT_EQ(SerializeMapping(warm.mapping),
            SerializeMapping(cold_response.mapping));
  EXPECT_EQ(warm.throughput, cold_response.throughput);
  EXPECT_EQ(warm.objective_value, cold_response.objective_value);

  const std::string json = warm.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"sweeps_captured\""), std::string::npos);
  EXPECT_NE(json.find("\"sweep_prefix_reused\""), std::string::npos);
}

TEST(MappingEngineTest, PersistentTierServesRestartedProcessFromDisk) {
  const testing::ScopedTempDir scratch;
  const std::string dir = scratch.path().string();
  EngineConfig config;
  config.cache_dir = dir;
  const TaskChain chain = ThreeTaskChain();
  std::string cold_text;
  {
    MappingEngine writer(config);
    MapRequest request = RequestFor(chain, SmallMachine());
    request.solver = SolverPolicy::kDp;
    request.use_cache = true;
    const MapResponse cold = writer.Map(request);
    EXPECT_FALSE(cold.cache_hit);
    cold_text = SerializeMapping(cold.mapping);
    writer.cache().FlushPersistence();
  }

  // A new engine ("restarted process") on the same directory answers the
  // fingerprint from disk — byte-identical, no re-solve — and from memory
  // on the repeat, because the disk hit rehydrated its LRU.
  MappingEngine engine(config);
  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kDp;
  request.use_cache = true;
  const MapResponse disk = engine.Map(request);
  EXPECT_TRUE(disk.cache_hit);
  EXPECT_EQ(disk.cache_tier, "disk");
  EXPECT_EQ(SerializeMapping(disk.mapping), cold_text);
  const MapResponse memory = engine.Map(request);
  EXPECT_TRUE(memory.cache_hit);
  EXPECT_EQ(memory.cache_tier, "memory");
  EXPECT_EQ(engine.cache().stats().persist_hits, 1u);

  const std::string json = disk.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"cache_tier\": \"disk\""), std::string::npos);
}

TEST(MappingEngineTest, RestartedIncrementalRequestRecapturesTheSweep) {
  // The persistent tier must not starve the warm pool: after a restart,
  // an incremental request whose configuration has no pooled sweep solves
  // once more (capture) even though disk could answer it — and the
  // perturbed re-solve then reuses the captured prefix, exactly as in a
  // never-restarted process.
  const testing::ScopedTempDir scratch;
  const std::string dir = scratch.path().string();
  EngineConfig config;
  config.cache_dir = dir;
  const TaskChain chain = ThreeTaskChain();
  {
    MappingEngine writer(config);
    MapRequest request = RequestFor(chain, SmallMachine());
    request.solver = SolverPolicy::kDp;
    request.use_cache = true;
    request.options.incremental = true;
    const MapResponse first = writer.Map(request);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_EQ(first.warm_sweeps_captured, 1u);
    writer.cache().FlushPersistence();
  }

  MappingEngine engine(config);
  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kDp;
  request.use_cache = true;
  request.options.incremental = true;
  const MapResponse captured = engine.Map(request);
  EXPECT_FALSE(captured.cache_hit);  // solved to capture, not read from disk
  EXPECT_EQ(captured.warm_sweeps_captured, 1u);

  // With the pool rebuilt, the identical request is a plain cache hit…
  const MapResponse hit = engine.Map(request);
  EXPECT_TRUE(hit.cache_hit);

  // …and a perturbed re-solve reuses the recaptured sweep's clean prefix,
  // byte-identical to a cold solve of the perturbed chain.
  const TaskChain perturbed = ScaleLastEdge(chain, 1.05);
  MapRequest again = RequestFor(perturbed, SmallMachine());
  again.solver = SolverPolicy::kDp;
  again.use_cache = true;
  again.options.incremental = true;
  const MapResponse warm = engine.Map(again);
  EXPECT_EQ(warm.warm_sweep_prefix_reused, 1u);

  MappingEngine cold_engine;
  MapRequest cold = RequestFor(perturbed, SmallMachine());
  cold.solver = SolverPolicy::kDp;
  cold.use_cache = false;
  const MapResponse cold_response = cold_engine.Map(cold);
  EXPECT_EQ(SerializeMapping(warm.mapping),
            SerializeMapping(cold_response.mapping));
  EXPECT_EQ(warm.throughput, cold_response.throughput);
}

/// The six Table-2 configurations (paper Section 5), all on P=64.
std::vector<Workload> Table2Workloads() {
  return {workloads::MakeFftHist(256, CommMode::kMessage),
          workloads::MakeFftHist(256, CommMode::kSystolic),
          workloads::MakeFftHist(512, CommMode::kMessage),
          workloads::MakeFftHist(512, CommMode::kSystolic),
          workloads::MakeRadar(CommMode::kSystolic),
          workloads::MakeStereo(CommMode::kSystolic)};
}

/// `request` with its chain carried only as `text`, as the server passes it.
MapRequest AsText(MapRequest request, const std::string& text) {
  request.chain = nullptr;
  request.chain_text = text;
  return request;
}

TEST(MappingEngineTest, CanonicalChainTextKeysLikeTheParsedChain) {
  // The server keys a request on its chain section's bytes, the CLI on
  // the parsed chain. For canonical text the two keys must be the same,
  // or the two front ends (and a shared cache directory) would stop
  // answering each other's fingerprints.
  std::vector<Workload> problems = Table2Workloads();
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    workloads::SyntheticSpec spec;
    spec.num_tasks = 8 + static_cast<int>(seed % 5);
    spec.machine_procs = 64;
    problems.push_back(workloads::MakeSynthetic(spec, seed));
  }
  const MappingEngine engine;
  for (const Workload& w : problems) {
    const int procs = w.machine.total_procs();
    EXPECT_EQ(procs, 64) << w.name;
    const std::string text = SerializeChain(w.chain, procs);
    const MapRequest by_chain = RequestFor(w.chain, w.machine);
    const std::uint64_t expected = engine.Fingerprint(by_chain);
    EXPECT_EQ(engine.Fingerprint(AsText(by_chain, text)), expected)
        << w.name;
    MapRequest both = by_chain;
    both.chain_text = text;
    EXPECT_EQ(engine.Fingerprint(both), expected) << w.name;
  }
}

TEST(MappingEngineTest, ChainTextRequestMapsOnAMissAndAHit) {
  // Radar on the systolic iWarp: placement drops replicas, so the placed
  // answer differs from the solve and both must survive the cache.
  const Workload radar = workloads::MakeRadar(CommMode::kSystolic);
  const std::string text =
      SerializeChain(radar.chain, radar.machine.total_procs());
  MapRequest by_chain = RequestFor(radar.chain, radar.machine);
  by_chain.solver = SolverPolicy::kDp;
  const MapRequest by_text = AsText(by_chain, text);

  MappingEngine reference;
  const PlacedMapping expected = reference.MapAndPlace(by_chain);
  const MapResponse expected_solve = MappingEngine().Map(by_chain);
  ASSERT_NE(expected.mapping, expected_solve.mapping)
      << "placement no longer changes this mapping; pick another chain";

  // A hit builds no Evaluator, so it tabulates no cost function.
  const ScopedMetricsEnable metrics_on(true);
  const auto tabulated = [] {
    return MetricsRegistry::Global()
        .Snapshot()
        .counters["evaluator.exec_evals"];
  };

  MappingEngine engine;
  for (const char* tier : {"", "memory"}) {
    const std::uint64_t tabulated_before = tabulated();
    const PlacedMapping placed = engine.MapAndPlace(by_text);
    EXPECT_EQ(placed.response.cache_tier, tier);
    EXPECT_EQ(placed.response.cache_hit, *tier != '\0');
    EXPECT_EQ(tabulated() == tabulated_before, placed.response.cache_hit);
    EXPECT_EQ(SerializeMapping(placed.mapping),
              SerializeMapping(expected.mapping));
    EXPECT_EQ(placed.response.mapping, expected_solve.mapping);
    EXPECT_EQ(placed.response.throughput, expected.response.throughput);
    EXPECT_EQ(placed.response.latency, expected.response.latency);
    EXPECT_EQ(placed.response.objective_value,
              expected.response.objective_value);
    EXPECT_FALSE(placed.response.exact);

    // Map alone answers the unplaced solve from the same entry.
    const MapResponse solve = engine.Map(by_text);
    EXPECT_TRUE(solve.cache_hit);
    EXPECT_EQ(SerializeMapping(solve.mapping),
              SerializeMapping(expected_solve.mapping));
    EXPECT_EQ(solve.throughput, expected_solve.throughput);
    EXPECT_EQ(solve.exact, expected_solve.exact);
  }
  // The chain-pointer request hits the entry the text request filled.
  const MapResponse pointer_hit = engine.Map(by_chain);
  EXPECT_TRUE(pointer_hit.cache_hit);
  EXPECT_EQ(engine.cache().stats().inserts, 1u);

  // Sweeps parse the text too.
  const double target = 0.5 * expected_solve.throughput;
  const ProcCountResult sized = engine.MinProcs(by_text, target);
  const ProcCountResult reference_sized =
      MappingEngine().MinProcs(by_chain, target);
  EXPECT_EQ(sized.procs, reference_sized.procs);
  EXPECT_EQ(sized.mapping, reference_sized.mapping);
}

TEST(MappingEngineTest, MalformedChainTextIsRefusedAndNeverCached) {
  const Workload fft = workloads::MakeFftHist(256, CommMode::kMessage);
  const std::string text =
      SerializeChain(fft.chain, fft.machine.total_procs());
  const MapRequest base = RequestFor(fft.chain, fft.machine);
  MappingEngine engine;
  for (const std::string& bad :
       {std::string("pipemap-chain v1\nnot a chain\n"),
        text.substr(0, text.size() / 2)}) {
    const MapRequest request = AsText(base, bad);
    EXPECT_THROW(engine.Map(request), InvalidArgument);
    EXPECT_THROW(engine.MapAndPlace(request), InvalidArgument);
  }
  const SolutionCacheStats stats = engine.cache().stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.entries, 0u);
  // The parse fails before single-flight: no flight was ever led.
  const SingleFlightStats flights = engine.single_flight_stats();
  EXPECT_EQ(flights.leaders, 0u);
  EXPECT_EQ(flights.failed_leaders, 0u);

  // The canonical text still solves afterwards.
  EXPECT_FALSE(engine.Map(AsText(base, text)).cache_hit);
  EXPECT_EQ(engine.single_flight_stats().leaders, 1u);
}

TEST(MappingEngineTest, CommentedChainTextMapsIdentically) {
  // Text that parses to the same chain but is not canonical keys apart
  // from the canonical text and gets the identical answer.
  const Workload radar = workloads::MakeRadar(CommMode::kSystolic);
  const std::string text =
      SerializeChain(radar.chain, radar.machine.total_procs());
  std::string commented = text;
  commented.insert(commented.find('\n') + 1, "# exported by hand\n");
  const MapRequest base = RequestFor(radar.chain, radar.machine);

  MappingEngine engine;
  const PlacedMapping canonical = engine.MapAndPlace(AsText(base, text));
  const PlacedMapping other = engine.MapAndPlace(AsText(base, commented));
  EXPECT_NE(other.response.fingerprint, canonical.response.fingerprint);
  EXPECT_FALSE(other.response.cache_hit);
  EXPECT_EQ(SerializeMapping(other.mapping),
            SerializeMapping(canonical.mapping));
  EXPECT_EQ(SerializeMapping(other.response.mapping),
            SerializeMapping(canonical.response.mapping));
  EXPECT_EQ(other.response.throughput, canonical.response.throughput);
  EXPECT_EQ(other.response.latency, canonical.response.latency);
  EXPECT_EQ(other.response.objective_value,
            canonical.response.objective_value);
  EXPECT_EQ(other.response.exact, canonical.response.exact);
  EXPECT_TRUE(engine.MapAndPlace(AsText(base, commented)).response.cache_hit);
}

}  // namespace
}  // namespace pipemap
