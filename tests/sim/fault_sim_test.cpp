// Fault injection in the simulators: crash rerouting, slowdown and link
// windows, the FaultImpact report, and the event engine's crash rejection.
#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "event_sim.h"
#include "sim/pipeline_sim.h"
#include "support/error.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::TaskSpec;

TaskChain OneTaskChain(double seconds) {
  return BuildChain({TaskSpec{seconds, 0.0, 0.0, 1, true}}, {});
}

Mapping Replicated(int replicas) {
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, replicas, 1});
  return m;
}

TEST(FaultSimTest, CrashReroutesToSurvivingInstances) {
  // Two instances of a 1s task; instance 0 crashes at t = 3. Before the
  // crash, throughput is 2/s; after it, instance 1 serves everything at
  // 1/s, so the 10-data-set makespan lands between the all-healthy 5s and
  // the single-instance 10s.
  const TaskChain chain = OneTaskChain(1.0);
  const FaultPlan plan = ParseFaultSpec("crash@3.0:m0.i0");
  SimOptions options;
  options.num_datasets = 10;
  options.warmup = 0;
  options.faults = &plan;
  const SimResult faulted =
      PipelineSimulator(chain).Run(Replicated(2), options);

  SimOptions healthy = options;
  healthy.faults = nullptr;
  const SimResult baseline =
      PipelineSimulator(chain).Run(Replicated(2), healthy);

  ASSERT_TRUE(faulted.fault_impact.has_value());
  EXPECT_EQ(faulted.fault_impact->crash_events, 1);
  EXPECT_GT(faulted.fault_impact->reroutes, 0);
  EXPECT_GT(faulted.makespan, baseline.makespan);
  EXPECT_LT(faulted.makespan, 10.0 + 1e-9);
  // Work started before the crash completes: the crash costs time, it
  // never loses a data set.
  EXPECT_NEAR(baseline.makespan, 5.0, 1e-9);
}

TEST(FaultSimTest, CrashBeforeStartIdlesTheInstanceEntirely) {
  const TaskChain chain = OneTaskChain(1.0);
  const FaultPlan plan = ParseFaultSpec("crash@0.0:m0.i0");
  SimOptions options;
  options.num_datasets = 6;
  options.warmup = 0;
  options.faults = &plan;
  const SimResult result = PipelineSimulator(chain).Run(Replicated(2), options);
  // Instance 1 alone: 6 sequential seconds.
  EXPECT_NEAR(result.makespan, 6.0, 1e-9);
  EXPECT_EQ(result.fault_impact->reroutes, 3);  // datasets 0, 2, 4 moved
}

TEST(FaultSimTest, AllInstancesCrashedIsInfeasible) {
  const TaskChain chain = OneTaskChain(1.0);
  const FaultPlan plan = ParseFaultSpec("crash@0.0:m0");
  SimOptions options;
  options.num_datasets = 4;
  options.faults = &plan;
  EXPECT_THROW(PipelineSimulator(chain).Run(Replicated(2), options),
               Infeasible);
}

TEST(FaultSimTest, SlowdownStretchesComputeInsideItsWindow) {
  // 1s task slowed 3x during [0, 2). The factor is sampled at each
  // compute's start: data set 0 starts at 0 (inside, takes 3s), data set 1
  // starts at 3 (outside, takes 1s), so the makespan is 4s.
  const TaskChain chain = OneTaskChain(1.0);
  const FaultPlan plan = ParseFaultSpec("slow@0.0+2.0:m0x3.0");
  SimOptions options;
  options.num_datasets = 2;
  options.warmup = 0;
  options.faults = &plan;
  const SimResult result = PipelineSimulator(chain).Run(Replicated(1), options);
  ASSERT_TRUE(result.fault_impact.has_value());
  EXPECT_EQ(result.fault_impact->slowdown_events, 1);
  EXPECT_NEAR(result.makespan, 4.0, 1e-9);
}

TEST(FaultSimTest, LinkDegradeStretchesTransfersOnOneBoundary) {
  // Two modules, 0.5s transfer, degraded 2x for the whole run.
  const TaskChain chain = BuildChain(
      {TaskSpec{1.0, 0.0, 0.0, 1}, TaskSpec{1.0, 0.0, 0.0, 1}},
      {EdgeSpec{0, 0, 0, /*e_fixed=*/0.5, 0, 0, 0, 0}});
  const FaultPlan plan = ParseFaultSpec("link@0.0+1000:e0x2.0");
  Mapping mapping;
  mapping.modules.push_back(ModuleAssignment{0, 0, 1, 1});
  mapping.modules.push_back(ModuleAssignment{1, 1, 1, 1});

  SimOptions options;
  options.num_datasets = 4;
  options.warmup = 0;
  SimOptions faulted = options;
  faulted.faults = &plan;
  const double healthy_makespan =
      PipelineSimulator(chain).Run(mapping, options).makespan;
  const SimResult degraded = PipelineSimulator(chain).Run(mapping, faulted);
  // Each of the 4 transfers gains 0.5s, and the transfer is on the
  // critical path of this two-singleton pipeline.
  EXPECT_GT(degraded.makespan, healthy_makespan);
  EXPECT_EQ(degraded.fault_impact->link_events, 1);
}

TEST(FaultSimTest, EmptyPlanLeavesResultUnmarked) {
  const TaskChain chain = OneTaskChain(1.0);
  const FaultPlan empty;
  SimOptions options;
  options.num_datasets = 3;
  options.faults = &empty;
  const SimResult result = PipelineSimulator(chain).Run(Replicated(1), options);
  EXPECT_FALSE(result.fault_impact.has_value());
}

TEST(FaultSimTest, FaultedRunStaysDeterministic) {
  const TaskChain chain = OneTaskChain(1.0);
  const FaultPlan plan = ParseFaultSpec("crash@2.5:m0.i1;slow@1+2:m0x2");
  SimOptions options;
  options.num_datasets = 12;
  options.warmup = 2;
  options.faults = &plan;
  const SimResult a = PipelineSimulator(chain).Run(Replicated(3), options);
  const SimResult b = PipelineSimulator(chain).Run(Replicated(3), options);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.fault_impact->reroutes, b.fault_impact->reroutes);
}

TEST(FaultSimTest, PlanModuleOutOfRangeIsRejected) {
  const TaskChain chain = OneTaskChain(1.0);
  const FaultPlan plan = ParseFaultSpec("crash@1.0:m5.i0");
  SimOptions options;
  options.faults = &plan;
  EXPECT_THROW(PipelineSimulator(chain).Run(Replicated(1), options),
               InvalidArgument);
}

TEST(FaultSimEventEngineTest, CrashEventsAreRejected) {
  const TaskChain chain = OneTaskChain(1.0);
  const FaultPlan plan = ParseFaultSpec("crash@1.0:m0.i0");
  SimOptions options;
  options.num_datasets = 4;
  options.faults = &plan;
  EXPECT_THROW(EventDrivenSimulator(chain).Run(Replicated(2), options),
               Error);
}

TEST(FaultSimEventEngineTest, SlowdownMatchesPipelineEngine) {
  const TaskChain chain = BuildChain(
      {TaskSpec{1.0, 0.0, 0.0, 1}, TaskSpec{0.5, 0.0, 0.0, 1}},
      {EdgeSpec{0, 0, 0, /*e_fixed=*/0.25, 0, 0, 0, 0}});
  const FaultPlan plan = ParseFaultSpec("slow@0+3:m1x2;link@1+2:e0x1.5");
  Mapping mapping;
  mapping.modules.push_back(ModuleAssignment{0, 0, 1, 1});
  mapping.modules.push_back(ModuleAssignment{1, 1, 1, 1});
  SimOptions options;
  options.num_datasets = 8;
  options.warmup = 2;
  options.faults = &plan;
  const SimResult event = EventDrivenSimulator(chain).Run(mapping, options);
  const SimResult pipeline = PipelineSimulator(chain).Run(mapping, options);
  EXPECT_NEAR(event.makespan, pipeline.makespan, 1e-9);
  EXPECT_NEAR(event.throughput, pipeline.throughput, 1e-9);
  ASSERT_TRUE(event.fault_impact.has_value());
  EXPECT_EQ(event.fault_impact->slowdown_events, 1);
  EXPECT_EQ(event.fault_impact->link_events, 1);
}

}  // namespace
}  // namespace pipemap
