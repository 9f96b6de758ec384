#include "core/greedy_mapper.h"

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/dp_mapper.h"
#include "support/error.h"
#include "support/metrics.h"
#include "workloads/synthetic.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::kTestNodeMemory;
using testing::TaskSpec;

TEST(GreedyMapperTest, SingleTaskMatchesDp) {
  const TaskChain chain = BuildChain({TaskSpec{1.0, 16.0, 0.5, 1, false}}, {});
  const Evaluator eval(chain, 12, kTestNodeMemory);
  const MapResult greedy = GreedyMapper().Map(eval, 12);
  const MapResult dp = DpMapper().Map(eval, 12);
  EXPECT_NEAR(greedy.throughput, dp.throughput, 1e-9 * dp.throughput);
}

TEST(GreedyMapperTest, ThroughputMatchesEvaluatorOnReturnedMapping) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 12, kTestNodeMemory);
  const MapResult result = GreedyMapper().Map(eval, 12);
  EXPECT_NEAR(result.throughput, eval.Throughput(result.mapping), 1e-12);
}

TEST(GreedyMapperTest, RespectsFixedClustering) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 12, kTestNodeMemory);
  const Clustering clustering = {{0, 1}, {2, 2}};
  const MapResult result =
      GreedyMapper().MapWithClustering(eval, 12, clustering);
  ASSERT_EQ(result.mapping.num_modules(), 2);
  EXPECT_EQ(result.mapping.modules[0].first_task, 0);
  EXPECT_EQ(result.mapping.modules[0].last_task, 1);
  EXPECT_EQ(result.mapping.modules[1].first_task, 2);
}

TEST(GreedyMapperTest, InfeasibleWhenMinimaExceedMachine) {
  const TaskChain chain = BuildChain(
      {TaskSpec{0, 1, 0, 5}, TaskSpec{0, 1, 0, 5}}, {EdgeSpec{}});
  const Evaluator eval(chain, 6, kTestNodeMemory);
  EXPECT_THROW(
      GreedyMapper().MapWithClustering(eval, 6, SingletonClustering(2)),
      Infeasible);
}

TEST(GreedyMapperTest, MapThrowsWhenSingleModuleCannotFit) {
  // One task whose memory minimum exceeds the whole machine: every
  // clustering (there is only one) is unconfigurable, so the full Map()
  // path — including the merged-chain fallback — must surface Infeasible.
  const TaskChain chain = BuildChain({TaskSpec{0, 1, 0, 5}}, {});
  const Evaluator eval(chain, 4, kTestNodeMemory);
  EXPECT_THROW(GreedyMapper().Map(eval, 4), Infeasible);
}

TEST(GreedyMapperTest, MapThrowsWhenMinimaExceedMachineEvenMerged) {
  // Two tasks of minimum 5 on a 6-processor machine: singletons need 10,
  // and the merged module's summed memory distribution still needs more
  // than 6, so the clustering fallback inside Map() cannot rescue it.
  const TaskChain chain = BuildChain(
      {TaskSpec{0, 1, 0, 5}, TaskSpec{0, 1, 0, 5}}, {EdgeSpec{}});
  const Evaluator eval(chain, 6, kTestNodeMemory);
  EXPECT_THROW(GreedyMapper().Map(eval, 6), Infeasible);
}

TEST(GreedyMapperTest, MergedFallbackRescuesTightSingletons) {
  // Singleton minima sum past the machine, but the merged chain fits: the
  // Map() fallback must return a mapping instead of rethrowing.
  const TaskChain chain = BuildChain(
      {TaskSpec{0, 1, 0, 3}, TaskSpec{0, 1, 0, 3}}, {EdgeSpec{}});
  const Evaluator eval(chain, 5, kTestNodeMemory);
  ASSERT_LT(eval.MinProcs(0, 1), 6) << "merged module must fit for this test";
  const MapResult result = GreedyMapper().Map(eval, 5);
  EXPECT_GT(result.throughput, 0.0);
}

TEST(GreedyMapperTest, MinBudgetSearchIsLogarithmicInProcessors) {
  // A feasibility predicate that rejects instance sizes below 37 forces
  // MinUsableBudget off its first probe, so it must binary-search the
  // smallest usable budget. The probe counter (via support/metrics.h)
  // certifies the O(log P) bound — the pre-fix linear scan would pay ~37
  // probes for the first module alone.
  const TaskChain chain = BuildChain({TaskSpec{0.0, 1.0, 0.0, 1, false}}, {});
  const Evaluator eval(chain, 256, kTestNodeMemory);

  MetricsRegistry::Global().Reset();
  const ScopedMetricsEnable metrics_on(true);
  GreedyOptions options;
  options.base.proc_feasible = [](int p) { return p >= 37; };
  const MapResult result = GreedyMapper(options).Map(eval, 256);
  EXPECT_GE(result.mapping.modules[0].procs_per_instance, 37);

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(snap.counters.count("greedy.min_budget_probes"), 1u);
  // One MinUsableBudget call: 2 endpoint probes + ceil(log2(256)) splits.
  EXPECT_LE(snap.counters.at("greedy.min_budget_probes"), 12u);
  MetricsRegistry::Global().Reset();
}

TEST(GreedyMapperTest, SolveKeepsMetricsEnabledMidSolve) {
  // Only the process's owner sets the metrics switch. A solve that starts
  // with collection off must not switch it back off after someone else
  // (here the predicate, standing in for another thread) turned it on.
  const ScopedMetricsEnable restore_after_test(false);
  MetricsRegistry::Global().Enable(false);
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 12, kTestNodeMemory);
  GreedyOptions options;
  options.base.num_threads = 1;
  options.base.proc_feasible = [](int) {
    MetricsRegistry::Global().Enable(true);
    return true;
  };
  GreedyMapper(options).Map(eval, 12);
  EXPECT_TRUE(MetricsRegistry::Enabled());
}

TEST(GreedyMapperTest, WorkIsLinearInProcessors) {
  // The paper's complexity claim: O(P k) steps. Work at 4P should be no
  // more than ~8x work at P (allowing constant factors and the clustering
  // passes, but far below the DP's quartic growth).
  workloads::SyntheticSpec spec;
  spec.num_tasks = 4;
  spec.machine_procs = 128;
  spec.memory_tightness = 0.0;
  const Workload w = workloads::MakeSynthetic(spec, 7);
  const Evaluator eval(w.chain, 128, w.machine.node_memory_bytes);
  const MapResult small = GreedyMapper().Map(eval, 32);
  const MapResult large = GreedyMapper().Map(eval, 128);
  EXPECT_LT(large.work, 8 * small.work + 512);
}

TEST(GreedyMapperTest, FindsReplicationBoundaryJump) {
  // Two tasks: the second is replicable with min 4 and dominated by a fixed
  // term, so its effective response only improves at budget multiples of 4.
  // The one-processor walk alone would stall (the paper's Section-4
  // pathology); the boundary probe must find the jump.
  const TaskChain chain = BuildChain(
      {TaskSpec{0.0, 1.0, 0.0, 1, true}, TaskSpec{1.0, 0.1, 0.0, 4, true}},
      {EdgeSpec{}});
  const Evaluator eval(chain, 16, kTestNodeMemory);
  const MapResult greedy = GreedyMapper().Map(eval, 16);
  const MapResult dp = DpMapper().Map(eval, 16);
  EXPECT_NEAR(greedy.throughput, dp.throughput, 1e-6 * dp.throughput);
}

TEST(GreedyMapperTest, BacktrackingNeverHurts) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 4;
  spec.machine_procs = 24;
  spec.comm_comp_ratio = 0.6;
  for (int seed = 0; seed < 10; ++seed) {
    const Workload w = workloads::MakeSynthetic(spec, 500 + seed);
    const Evaluator eval(w.chain, 24, w.machine.node_memory_bytes);
    GreedyOptions plain;
    GreedyOptions with_bt;
    with_bt.limited_backtracking = true;
    const MapResult a = GreedyMapper(plain).Map(eval, 24);
    const MapResult b = GreedyMapper(with_bt).Map(eval, 24);
    EXPECT_GE(b.throughput, a.throughput - 1e-12) << "seed " << seed;
  }
}

// Theorem 1: with communication monotonically increasing in the processor
// counts involved, the modified greedy (bottleneck only) finds the optimal
// processor assignment.
class Theorem1Property : public ::testing::TestWithParam<int> {};

TEST_P(Theorem1Property, BottleneckOnlyGreedyIsOptimalUnderMonotoneComm) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 3;
  spec.machine_procs = 10;
  spec.monotone_comm = true;
  spec.comm_comp_ratio = 0.4;
  spec.memory_tightness = 0.0;
  const Workload w = workloads::MakeSynthetic(spec, 900 + GetParam());
  const Evaluator eval(w.chain, 10, w.machine.node_memory_bytes);

  GreedyOptions greedy_options;
  greedy_options.variant = GreedyOptions::Variant::kBottleneckOnly;
  greedy_options.base.replication = ReplicationPolicy::kNone;
  greedy_options.base.allow_clustering = false;

  MapperOptions dp_options;
  dp_options.replication = ReplicationPolicy::kNone;
  dp_options.allow_clustering = false;

  const MapResult greedy = GreedyMapper(greedy_options).Map(eval, 10);
  const MapResult dp = DpMapper(dp_options).Map(eval, 10);
  EXPECT_NEAR(greedy.throughput, dp.throughput, 1e-9 * dp.throughput);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Property, ::testing::Range(0, 25));

// Greedy is a heuristic: never better than the DP optimum, and in practice
// close to it (the paper reports it reaches the optimum on its programs).
class GreedyNearOptimal : public ::testing::TestWithParam<int> {};

TEST_P(GreedyNearOptimal, WithinOptimumAndAboveBaselines) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 4;
  spec.machine_procs = 16;
  spec.comm_comp_ratio = 0.5;
  spec.memory_tightness = 0.25;
  spec.replicable_fraction = 0.8;
  const Workload w = workloads::MakeSynthetic(spec, 2000 + GetParam());
  const Evaluator eval(w.chain, 16, w.machine.node_memory_bytes);

  const MapResult dp = DpMapper().Map(eval, 16);
  const MapResult greedy = GreedyMapper().Map(eval, 16);

  EXPECT_LE(greedy.throughput, dp.throughput * (1.0 + 1e-9));
  EXPECT_GE(greedy.throughput, 0.75 * dp.throughput)
      << "greedy: " << greedy.mapping.ToString(w.chain)
      << "\ndp: " << dp.mapping.ToString(w.chain);

  const MapResult data_parallel = DataParallelMapping(eval, 16);
  EXPECT_GE(greedy.throughput, data_parallel.throughput - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyNearOptimal, ::testing::Range(0, 25));

}  // namespace
}  // namespace pipemap
