// Run-report JSON assembly (sim/run_report.h): schema shape, metrics
// embedding, and non-finite handling.
#include "sim/run_report.h"

#include <gtest/gtest.h>

#include <string>

#include "core/evaluator.h"
#include "sim/attribution.h"
#include "sim/pipeline_sim.h"
#include "support/metrics.h"
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

struct ReportFixture {
  TaskChain chain = BuildChain(
      {TaskSpec{1.0, 0.0, 0.0, 1}, TaskSpec{2.0, 0.0, 0.0, 1}},
      {EdgeSpec{0, 0, 0, /*e_fixed=*/0.5, 0, 0, 0, 0}});
  Evaluator eval{chain, 4, kTestNodeMemory};
  Mapping mapping;
  SimResult result;
  BottleneckAttribution attribution;
  int num_datasets = 12;

  ReportFixture() {
    mapping.modules.push_back(ModuleAssignment{0, 0, 1, 1});
    mapping.modules.push_back(ModuleAssignment{1, 1, 1, 1});
    SimOptions options;
    options.num_datasets = num_datasets;
    options.warmup = 0;
    result = PipelineSimulator(chain).Run(mapping, options);
    attribution = AttributeBottleneck(eval, mapping, result, num_datasets);
  }
};

TEST(RunReportTest, EmitsValidJsonWithAllSections) {
  const ReportFixture fx;
  RunReportOptions options;
  options.num_datasets = fx.num_datasets;

  const std::string json = BuildRunReportJson(fx.eval, fx.mapping, fx.result,
                                              fx.attribution, options);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"workload\""), std::string::npos);
  EXPECT_NE(json.find("\"mapping\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted\""), std::string::npos);
  EXPECT_NE(json.find("\"simulated\""), std::string::npos);
  EXPECT_NE(json.find("\"attribution\""), std::string::npos);
  EXPECT_NE(json.find("\"bottleneck_module\""), std::string::npos);
  EXPECT_NE(json.find("\"module_utilization\""), std::string::npos);
  // No metrics snapshot and no trace were supplied.
  EXPECT_NE(json.find("\"metrics\": null"), std::string::npos);
  EXPECT_NE(json.find("\"trace_path\": null"), std::string::npos);
  // Workload facts.
  EXPECT_NE(json.find("\"tasks\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"datasets\": 12"), std::string::npos);
}

TEST(RunReportTest, EmbedsMetricsSnapshotAndTracePath) {
  const ReportFixture fx;

  MetricsRegistry::Global().Reset();
  {
    const ScopedMetricsEnable on(true);
    MetricsRegistry::Global().GetCounter("test.report.counter")->Add(3);
  }
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  MetricsRegistry::Global().Reset();

  RunReportOptions options;
  options.num_datasets = fx.num_datasets;
  options.metrics = &snapshot;
  const testing::ScopedTempDir scratch;
  options.trace_path = scratch.File("run.trace.json");

  const std::string json = BuildRunReportJson(fx.eval, fx.mapping, fx.result,
                                              fx.attribution, options);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"test.report.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_path\": \"" + options.trace_path + "\""),
            std::string::npos);
  EXPECT_EQ(json.find("\"metrics\": null"), std::string::npos);
}

TEST(RunReportTest, AttributionEntriesCarryDivergence) {
  const ReportFixture fx;
  RunReportOptions options;
  options.num_datasets = fx.num_datasets;
  const std::string json = BuildRunReportJson(fx.eval, fx.mapping, fx.result,
                                              fx.attribution, options);
  EXPECT_NE(json.find("\"divergence\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_effective_s\""), std::string::npos);
  EXPECT_NE(json.find("\"observed_effective_s\""), std::string::npos);
  // Two modules => two attribution entries.
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"divergence\"");
       pos != std::string::npos; pos = json.find("\"divergence\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

}  // namespace
}  // namespace pipemap
