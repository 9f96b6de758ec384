#include "support/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/dp_mapper.h"
#include "core/evaluator.h"
#include "support/tracer.h"
#include "../json_util.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::IsValidJson;
using testing::kTestNodeMemory;

/// Every test starts from a clean, enabled registry/tracer and leaves both
/// disabled, so tests cannot observe each other's residue.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    Tracer::Global().Clear();
    MetricsRegistry::Global().Enable(true);
    Tracer::Global().Enable(true);
  }
  void TearDown() override {
    MetricsRegistry::Global().Enable(false);
    Tracer::Global().Enable(false);
    MetricsRegistry::Global().Reset();
    Tracer::Global().Clear();
  }
};

TEST_F(MetricsTest, CounterSumsAcrossThreads) {
  auto* counter = MetricsRegistry::Global().GetCounter("test.counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Total(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, CounterHandleIsInterned) {
  auto* a = MetricsRegistry::Global().GetCounter("test.interned");
  auto* b = MetricsRegistry::Global().GetCounter("test.interned");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Total(), 3u);
}

TEST_F(MetricsTest, GaugeSetAndMax) {
  auto* gauge = MetricsRegistry::Global().GetGauge("test.gauge");
  gauge->Set(5.0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 5.0);
  gauge->Max(3.0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 5.0);  // max never lowers
  gauge->Max(9.0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 9.0);
}

TEST_F(MetricsTest, HistogramStatsAreExactWherePromised) {
  auto* hist = MetricsRegistry::Global().GetHistogram("test.hist");
  double sum = 0.0;
  for (int i = 1; i <= 100; ++i) {
    hist->Record(static_cast<double>(i));
    sum += i;
  }
  const HistogramStats stats = hist->Stats();
  EXPECT_EQ(stats.count, 100u);
  EXPECT_DOUBLE_EQ(stats.sum, sum);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 100.0);
  EXPECT_DOUBLE_EQ(stats.mean, sum / 100.0);
  // Percentiles are bucketed estimates: the power-of-two bucket holding
  // the true percentile can be off by at most a factor of 2.
  EXPECT_GE(stats.p50, 25.0);
  EXPECT_LE(stats.p50, 100.0);
  EXPECT_GE(stats.p90, stats.p50);
  EXPECT_GE(stats.p99, stats.p90);
  EXPECT_LE(stats.p99, stats.max);
}

TEST_F(MetricsTest, QuantileIsMonotoneAndBracketed) {
  auto* hist = MetricsRegistry::Global().GetHistogram("test.quantile");
  for (int i = 1; i <= 1000; ++i) hist->Record(static_cast<double>(i));
  const HistogramStats stats = hist->Stats();
  double prev = 0.0;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double v = stats.Quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_LE(v, 2.0 * stats.max) << "q=" << q;  // bucket estimate bound
    prev = v;
  }
  // The precomputed fields are exactly Quantile at their q.
  EXPECT_DOUBLE_EQ(stats.p50, stats.Quantile(0.50));
  EXPECT_DOUBLE_EQ(stats.p90, stats.Quantile(0.90));
  EXPECT_DOUBLE_EQ(stats.p95, stats.Quantile(0.95));
  EXPECT_DOUBLE_EQ(stats.p99, stats.Quantile(0.99));
  EXPECT_GE(stats.p95, stats.p90);
  EXPECT_GE(stats.p99, stats.p95);
}

TEST_F(MetricsTest, EmptyHistogramQuantilesAreZero) {
  auto* hist = MetricsRegistry::Global().GetHistogram("test.empty_quantile");
  const HistogramStats stats = hist->Stats();
  EXPECT_EQ(stats.count, 0u);
  // Pinned edge case: every quantile of an empty histogram is exactly 0,
  // including the extremes.
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(stats.Quantile(q), 0.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(stats.p50, 0.0);
  EXPECT_DOUBLE_EQ(stats.p95, 0.0);
  EXPECT_DOUBLE_EQ(stats.p99, 0.0);
}

TEST_F(MetricsTest, SingleSampleQuantilesAreTheSample) {
  // Pinned edge case: with one sample there is nothing to estimate —
  // every quantile is that sample exactly, not its bucket's upper edge.
  for (const double sample : {0.75, 1.0, 3.5, 1234.5}) {
    MetricsRegistry::Global().Reset();
    auto* hist = MetricsRegistry::Global().GetHistogram("test.single");
    hist->Record(sample);
    const HistogramStats stats = hist->Stats();
    ASSERT_EQ(stats.count, 1u);
    for (const double q : {0.0, 0.5, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(stats.Quantile(q), sample)
          << "q=" << q << " sample=" << sample;
    }
    EXPECT_DOUBLE_EQ(stats.p50, sample);
    EXPECT_DOUBLE_EQ(stats.p99, sample);
  }
}

TEST_F(MetricsTest, CumulativeBucketsAreExactMonotoneAndComplete) {
  auto* hist = MetricsRegistry::Global().GetHistogram("test.cumulative");
  // x.5 samples never sit exactly on a power-of-two bucket edge, so
  // "<= le" and the bucketing's "< le" boundary convention agree and the
  // hand count below must match exactly.
  for (int i = 1; i <= 500; ++i) hist->Record(i + 0.5);
  const HistogramStats stats = hist->Stats();
  const auto buckets = stats.CumulativeBuckets();
  ASSERT_FALSE(buckets.empty());
  std::uint64_t prev = 0;
  double prev_le = 0.0;
  for (const auto& b : buckets) {
    EXPECT_GT(b.le, prev_le);             // strictly increasing bounds
    EXPECT_GE(b.cumulative_count, prev);  // monotone counts
    prev = b.cumulative_count;
    prev_le = b.le;
  }
  // The last bucket covers everything.
  EXPECT_EQ(buckets.back().cumulative_count, stats.count);
  // The `le` bounds are exact: counting samples <= le by hand agrees.
  for (const auto& b : buckets) {
    std::uint64_t manual = 0;
    for (int i = 1; i <= 500; ++i) {
      if (i + 0.5 <= b.le) ++manual;
    }
    EXPECT_EQ(b.cumulative_count, manual) << "le=" << b.le;
  }
}

TEST_F(MetricsTest, CumulativeBucketsOfEmptyHistogramAreEmpty) {
  auto* hist = MetricsRegistry::Global().GetHistogram("test.cumulative_empty");
  EXPECT_TRUE(hist->Stats().CumulativeBuckets().empty());
}

TEST_F(MetricsTest, SnapshotJsonCarriesPercentiles) {
  MetricsRegistry::Global().GetHistogram("test.pjson")->Record(4.0);
  const std::string json = MetricsRegistry::Global().Snapshot().ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
}

TEST_F(MetricsTest, DisabledRegistryRecordsNothing) {
  MetricsRegistry::Global().Enable(false);
  PIPEMAP_COUNTER_ADD("test.disabled", 100);
  PIPEMAP_GAUGE_SET("test.disabled_gauge", 1.0);
  PIPEMAP_HISTOGRAM_RECORD("test.disabled_hist", 1.0);
  MetricsRegistry::Global().Enable(true);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters.count("test.disabled"), 0u);
  EXPECT_EQ(snap.gauges.count("test.disabled_gauge"), 0u);
  EXPECT_EQ(snap.histograms.count("test.disabled_hist"), 0u);
}

TEST_F(MetricsTest, ResetZeroesButKeepsHandles) {
  auto* counter = MetricsRegistry::Global().GetCounter("test.reset");
  counter->Add(41);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(counter->Total(), 0u);
  counter->Add(1);  // the pre-Reset handle must still be live
  EXPECT_EQ(counter->Total(), 1u);
}

TEST_F(MetricsTest, SnapshotToJsonIsValidAndComplete) {
  MetricsRegistry::Global().GetCounter("test.a")->Add(7);
  MetricsRegistry::Global().GetGauge("test.b")->Set(2.5);
  MetricsRegistry::Global().GetHistogram("test.c")->Record(1.0);
  const std::string json = MetricsRegistry::Global().Snapshot().ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"test.a\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.b\""), std::string::npos);
  EXPECT_NE(json.find("\"test.c\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST_F(MetricsTest, ScopedEnableRestoresPreviousState) {
  MetricsRegistry::Global().Enable(false);
  {
    const ScopedMetricsEnable observe(true);
    EXPECT_TRUE(MetricsRegistry::Enabled());
  }
  EXPECT_FALSE(MetricsRegistry::Enabled());
  {
    const ScopedMetricsEnable passive(false);
    EXPECT_FALSE(MetricsRegistry::Enabled());
  }
  MetricsRegistry::Global().Enable(true);
  {
    const ScopedMetricsEnable nested(true);
    EXPECT_TRUE(MetricsRegistry::Enabled());
  }
  EXPECT_TRUE(MetricsRegistry::Enabled());
}

TEST_F(MetricsTest, TracerRecordsSortedMonotoneSpans) {
  {
    Tracer::Span outer("test.outer", "test", 1);
    Tracer::Span inner("test.inner", "test", 2);
  }
  const std::vector<Tracer::Event> events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by begin time: outer began first and encloses inner.
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_STREQ(events[1].name, "test.inner");
  EXPECT_LE(events[0].begin_ns, events[1].begin_ns);
  EXPECT_GE(events[0].begin_ns + events[0].dur_ns,
            events[1].begin_ns + events[1].dur_ns);
  EXPECT_EQ(events[0].arg, 1);
  EXPECT_EQ(events[1].arg, 2);
}

TEST_F(MetricsTest, TracerChromeJsonIsValid) {
  { Tracer::Span span("test.span", "test", 42); }
  const std::string json = Tracer::Global().ToChromeJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(MetricsTest, DisabledTracerSpansAreInert) {
  Tracer::Global().Enable(false);
  { Tracer::Span span("test.ghost", "test"); }
  // Disabled at construction stays inert even if enabled before closing.
  {
    Tracer::Span span("test.ghost2", "test");
    Tracer::Global().Enable(true);
  }
  EXPECT_TRUE(Tracer::Global().Events().empty());
}

TEST_F(MetricsTest, ObservedDpRunMatchesUnobservedRun) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 12, kTestNodeMemory);

  MetricsRegistry::Global().Enable(false);
  const MapResult unobserved = DpMapper().Map(eval, 12);

  MetricsRegistry::Global().Enable(true);
  const MapResult observed = DpMapper().Map(eval, 12);

  // Observation must never perturb the algorithm.
  EXPECT_EQ(observed.mapping.ToString(chain),
            unobserved.mapping.ToString(chain));
  EXPECT_EQ(observed.throughput, unobserved.throughput);
  EXPECT_EQ(observed.work, unobserved.work);

  // And the observed run must actually have fed the registry.
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(snap.counters.count("dp.runs"), 1u);
  EXPECT_EQ(snap.counters.at("dp.runs"), 1u);
  EXPECT_GT(snap.counters.at("dp.cells_evaluated"), 0u);
  EXPECT_GT(snap.counters.at("dp.stages_swept"), 0u);
}

}  // namespace
}  // namespace pipemap
