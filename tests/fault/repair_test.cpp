// RepairEngine tests: the ISSUE's acceptance criterion — an injected
// processor crash yields a repaired mapping that uses only surviving
// processors — plus the three repair policies and the retry loop.
#include "fault/repair.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/evaluator.h"
#include "io/serialize.h"
#include "support/error.h"
#include "workloads/fft_hist.h"
#include "workloads/stereo.h"
#include "../test_util.h"

namespace pipemap {
namespace {

struct Fixture {
  Workload workload = workloads::MakeFftHist(256, CommMode::kMessage);
  MappingEngine engine;

  Mapping MapHealthy() {
    MapRequest request;
    request.chain = &workload.chain;
    request.machine = workload.machine;
    request.solver = SolverPolicy::kAuto;
    return engine.Map(request).mapping;
  }

  RepairRequest BaseRequest(const Mapping& failed) {
    RepairRequest r;
    r.chain = &workload.chain;
    r.machine = workload.machine;
    r.failed_mapping = failed;
    return r;
  }
};

TEST(RepairEngineTest, FullRemapUsesOnlySurvivingProcessors) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kFullRemap;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);

  const int surviving =
      f.workload.machine.total_procs() - failed.modules[0].procs_per_instance;
  EXPECT_TRUE(outcome.mapping.IsValidFor(f.workload.chain.size()));
  EXPECT_LE(outcome.mapping.TotalProcs(), surviving);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_GE(outcome.attempts, 1);
  EXPECT_GT(outcome.post_fault_throughput, 0.0);
  EXPECT_GT(outcome.throughput_retention, 0.0);
  EXPECT_LE(outcome.throughput_retention, 1.0 + 1e-9);
  EXPECT_FALSE(outcome.solver.empty());
}

TEST(RepairEngineTest, DropReplicaShrinksTheFailedModuleOnly) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kDropReplica;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);

  EXPECT_TRUE(outcome.degraded);
  EXPECT_EQ(outcome.attempts, 0);
  EXPECT_EQ(outcome.mapping.modules[0].replicas,
            failed.modules[0].replicas - 1);
  for (int m = 1; m < failed.num_modules(); ++m) {
    EXPECT_EQ(outcome.mapping.modules[m], failed.modules[m]);
  }
}

TEST(RepairEngineTest, DropReplicaOfLastInstanceFallsBackToRemap) {
  // Shrink to a mapping where the failed module has exactly one replica:
  // dropping it would empty the module, so the engine must re-solve.
  Fixture f;
  Mapping failed = f.MapHealthy();
  failed.modules[0].replicas = 1;

  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kDropReplica;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_GE(outcome.attempts, 1);
  EXPECT_TRUE(outcome.mapping.IsValidFor(f.workload.chain.size()));
}

TEST(RepairEngineTest, ThroughputFloorEscalatesWhenDegradedMappingTooSlow) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  // A floor no drop-replica repair can reach (losing an instance of the
  // bottleneck module must cost some throughput) forces the full remap
  // path; the remap may still miss the (absurd) floor, which must be
  // reported as Infeasible rather than silently accepted.
  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kThroughputFloor;
  request.throughput_floor_fraction = 0.999;
  try {
    const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);
    EXPECT_FALSE(outcome.degraded);
    EXPECT_GE(outcome.throughput_retention, 0.999);
  } catch (const Infeasible&) {
    // Acceptable: even the remap could not reach 99.9% retention.
  }
}

TEST(RepairEngineTest, ThroughputFloorAcceptsGoodDegradedMapping) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kThroughputFloor;
  request.throughput_floor_fraction = 0.1;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_GE(outcome.throughput_retention, 0.1);
}

TEST(RepairEngineTest, WarmRepairSeedsTheIncumbent) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kFullRemap;
  request.use_cache = false;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);
  // The drop-replica candidate exists (replicas >= 2), so the remap solve
  // starts from a feasible incumbent.
  EXPECT_TRUE(outcome.warm_start_used);
}

TEST(RepairEngineTest, FullRemapMatchesAColdSolveOfTheSurvivors) {
  // The warm-start incumbent a full remap carries only tightens pruning:
  // the repaired mapping is exactly what a fresh engine's kAuto solve on
  // the surviving processors returns.
  const std::vector<Workload> apps = {
      workloads::MakeFftHist(256, CommMode::kMessage),
      workloads::MakeStereo(CommMode::kSystolic)};
  for (const Workload& w : apps) {
    SCOPED_TRACE(w.name);
    MappingEngine engine;
    MapRequest healthy;
    healthy.chain = &w.chain;
    healthy.machine = w.machine;
    const Mapping failed = engine.Map(healthy).mapping;
    // Crash one instance of the first replicated module (module 0 when
    // none is: the remap then runs without a drop-replica incumbent).
    int victim = 0;
    for (int m = 0; m < failed.num_modules(); ++m) {
      if (failed.modules[m].replicas >= 2) {
        victim = m;
        break;
      }
    }

    RepairRequest request;
    request.chain = &w.chain;
    request.machine = w.machine;
    request.failed_mapping = failed;
    request.failed_module = victim;
    request.failed_instances = 1;
    request.policy = RepairPolicy::kFullRemap;
    const RepairOutcome outcome = RepairEngine(&engine).Repair(request);

    MappingEngine fresh;
    MapRequest cold;
    cold.chain = &w.chain;
    cold.machine = w.machine;
    cold.total_procs = w.machine.total_procs() -
                       failed.modules[victim].procs_per_instance;
    cold.solver = SolverPolicy::kAuto;
    const MapResponse expected = fresh.Map(cold);
    EXPECT_EQ(SerializeMapping(outcome.mapping),
              SerializeMapping(expected.mapping));
    EXPECT_EQ(outcome.post_fault_throughput, expected.throughput);
  }
}

TEST(RepairEngineTest, TimedOutRepairStillReturnsValidMapping) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kFullRemap;
  request.use_cache = false;
  request.solver_deadline_s = 1e-9;
  request.deadline_growth = 1.0;  // keep every attempt hopeless
  request.max_attempts = 2;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_TRUE(outcome.mapping.IsValidFor(f.workload.chain.size()));
  EXPECT_GT(outcome.post_fault_throughput, 0.0);
}

TEST(RepairEngineTest, RejectsMalformedRequests) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  RepairEngine repair(&f.engine);

  RepairRequest bad_module = f.BaseRequest(failed);
  bad_module.failed_module = failed.num_modules();
  EXPECT_THROW(repair.Repair(bad_module), InvalidArgument);

  RepairRequest bad_instances = f.BaseRequest(failed);
  bad_instances.failed_instances = failed.modules[0].replicas + 1;
  EXPECT_THROW(repair.Repair(bad_instances), InvalidArgument);

  RepairRequest no_chain = f.BaseRequest(failed);
  no_chain.chain = nullptr;
  EXPECT_THROW(repair.Repair(no_chain), Error);
}

TEST(RepairEngineTest, ApplyCrashToRequestReadsThePlan) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  ApplyCrashToRequest(request, ParseFaultSpec("crash@2.0:m0.i0"));
  EXPECT_EQ(request.failed_module, 0);
  EXPECT_EQ(request.failed_instances, 1);

  // Instance -1 kills every instance of the module.
  RepairRequest all = f.BaseRequest(failed);
  ApplyCrashToRequest(all, ParseFaultSpec("crash@2.0:m0"));
  EXPECT_EQ(all.failed_instances, failed.modules[0].replicas);

  RepairRequest none = f.BaseRequest(failed);
  EXPECT_THROW(ApplyCrashToRequest(none, ParseFaultSpec("slow@1+2:m0x2")),
               InvalidArgument);
}

TEST(RepairEngineTest, OutcomeJsonCarriesTheRecoveryStory) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  request.policy = RepairPolicy::kDropReplica;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);
  const std::string json = outcome.ToJson();
  EXPECT_NE(json.find("\"throughput_retention\""), std::string::npos);
  EXPECT_NE(json.find("\"repair_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
}

TEST(RepairPolicyTest, NamesRoundTrip) {
  for (const RepairPolicy p :
       {RepairPolicy::kFullRemap, RepairPolicy::kDropReplica,
        RepairPolicy::kThroughputFloor}) {
    EXPECT_EQ(RepairPolicyFromName(ToString(p)), p);
  }
  EXPECT_THROW(RepairPolicyFromName("nonsense"), InvalidArgument);
}

}  // namespace
}  // namespace pipemap
