#include "event_sim.h"

#include <gtest/gtest.h>

#include "core/dp_mapper.h"
#include "core/evaluator.h"
#include "event_queue.h"
#include "support/error.h"
#include "workloads/fft_hist.h"
#include "workloads/radar.h"
#include "workloads/stereo.h"
#include "workloads/synthetic.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::TaskSpec;

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(2.0, [&] { order.push_back(2); });
  q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTest, EqualTimesRunInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 4) q.Schedule(q.now() + 1.0, chain);
  };
  q.Schedule(0.0, chain);
  q.RunAll();
  EXPECT_EQ(count, 4);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueueTest, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.Schedule(5.0, [] {});
  q.RunNext();
  EXPECT_THROW(q.Schedule(1.0, [] {}), InvalidArgument);
}

Mapping Singletons(const std::vector<std::pair<int, int>>& replicas_procs) {
  Mapping m;
  int t = 0;
  for (const auto& [r, p] : replicas_procs) {
    m.modules.push_back(ModuleAssignment{t, t, r, p});
    ++t;
  }
  return m;
}

void ExpectResultsMatch(const SimResult& a, const SimResult& b) {
  EXPECT_NEAR(a.throughput, b.throughput, 1e-9 * a.throughput);
  EXPECT_NEAR(a.makespan, b.makespan, 1e-9 * a.makespan);
  EXPECT_NEAR(a.mean_latency, b.mean_latency, 1e-9 * a.mean_latency);
  ASSERT_EQ(a.module_utilization.size(), b.module_utilization.size());
  for (std::size_t m = 0; m < a.module_utilization.size(); ++m) {
    EXPECT_NEAR(a.module_utilization[m], b.module_utilization[m], 1e-9);
  }
}

TEST(EventSimTest, MatchesRecurrenceSimOnHandExample) {
  const TaskChain chain = BuildChain(
      {TaskSpec{1.0, 0.0, 0.0, 1}, TaskSpec{2.0, 0.0, 0.0, 1}},
      {EdgeSpec{0, 0, 0, 0.5, 0, 0, 0, 0}});
  SimOptions options;
  options.num_datasets = 12;
  options.warmup = 3;
  const Mapping m = Singletons({{1, 1}, {1, 1}});
  const SimResult recurrence = PipelineSimulator(chain).Run(m, options);
  const SimResult event = EventDrivenSimulator(chain).Run(m, options);
  ExpectResultsMatch(recurrence, event);
  EXPECT_NEAR(event.throughput, 1.0 / 2.5, 1e-9);
}

TEST(EventSimTest, MatchesRecurrenceSimWithReplication) {
  const TaskChain chain = BuildChain(
      {TaskSpec{0.3, 0.4, 0.0, 1}, TaskSpec{0.7, 0.2, 0.0, 1},
       TaskSpec{0.2, 0.1, 0.0, 1}},
      {EdgeSpec{0, 0, 0, 0.1, 0.05, 0.05, 0, 0},
       EdgeSpec{0, 0, 0, 0.15, 0.02, 0.02, 0, 0}});
  SimOptions options;
  options.num_datasets = 60;
  options.warmup = 20;
  for (const Mapping& m :
       {Singletons({{2, 1}, {3, 2}, {1, 2}}),
        Singletons({{1, 4}, {2, 2}, {2, 1}}),
        Singletons({{3, 1}, {1, 3}, {4, 1}})}) {
    const SimResult recurrence = PipelineSimulator(chain).Run(m, options);
    const SimResult event = EventDrivenSimulator(chain).Run(m, options);
    ExpectResultsMatch(recurrence, event);
  }
}

// Cross-validation sweep: the two engines are structurally different
// implementations of the Figure-2 semantics; they must agree to machine
// precision on every workload and mapping, including with systematic
// (order-independent) noise.
class EngineCrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(EngineCrossValidation, EnginesAgreeOnOptimalMappings) {
  const int param = GetParam();
  const bool with_bias = param >= 10;
  const int which = param % 10;
  Workload w = [&] {
    switch (which) {
      case 0:
        return workloads::MakeFftHist(256, CommMode::kMessage);
      case 1:
        return workloads::MakeFftHist(512, CommMode::kSystolic);
      case 2:
        return workloads::MakeRadar(CommMode::kSystolic);
      case 3:
        return workloads::MakeStereo(CommMode::kSystolic);
      default: {
        workloads::SyntheticSpec spec;
        spec.num_tasks = 2 + which % 4;
        spec.machine_procs = 24;
        spec.comm_comp_ratio = 0.5;
        spec.memory_tightness = 0.2;
        return workloads::MakeSynthetic(spec, 8800 + which);
      }
    }
  }();
  const int P = w.machine.total_procs();
  const Evaluator eval(w.chain, P, w.machine.node_memory_bytes);
  const MapResult dp = DpMapper().Map(eval, P);

  SimOptions options;
  options.num_datasets = 150;
  options.warmup = 50;
  if (with_bias) {
    options.noise.systematic_stddev = 0.05;
    options.noise.seed = 99 + which;
  }
  const SimResult recurrence =
      PipelineSimulator(w.chain).Run(dp.mapping, options);
  const SimResult event =
      EventDrivenSimulator(w.chain).Run(dp.mapping, options);
  ExpectResultsMatch(recurrence, event);
}

INSTANTIATE_TEST_SUITE_P(Workloads, EngineCrossValidation,
                         ::testing::ValuesIn(std::vector<int>{
                             0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14,
                             15}));

TEST(EventSimTest, RejectsOrderDependentNoise) {
  const TaskChain chain = BuildChain({TaskSpec{1, 0, 0, 1}}, {});
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 1, 1});
  SimOptions options;
  options.noise.jitter_stddev = 0.1;
  EXPECT_THROW(EventDrivenSimulator(chain).Run(m, options), InvalidArgument);
  options.noise.jitter_stddev = 0.0;
  options.noise.contention_coeff = 0.1;
  EXPECT_THROW(EventDrivenSimulator(chain).Run(m, options), InvalidArgument);
  options.noise.contention_coeff = 0.0;
  options.collect_profile = true;
  EXPECT_THROW(EventDrivenSimulator(chain).Run(m, options), InvalidArgument);
}

TEST(EventSimTest, SingleModuleChain) {
  const TaskChain chain = BuildChain({TaskSpec{0.5, 0.0, 0.0, 1}}, {});
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 2, 1});
  SimOptions options;
  options.num_datasets = 10;
  options.warmup = 2;
  const SimResult recurrence = PipelineSimulator(chain).Run(m, options);
  const SimResult event = EventDrivenSimulator(chain).Run(m, options);
  ExpectResultsMatch(recurrence, event);
  EXPECT_NEAR(event.throughput, 4.0, 1e-9);
}

}  // namespace
}  // namespace pipemap
