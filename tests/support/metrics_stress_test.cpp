// Concurrent metrics stress: snapshots racing live writers. Built twice —
// into support_tests and into the ThreadSanitizer binary tsan_tests (ctest
// entry `metrics_stress_tsan`) — so ctest certifies the
// registry's sharded counters/gauges/histograms and the snapshot
// aggregation race-free while the server scrapes `metrics` mid-load.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "support/metrics.h"
#include "support/prometheus.h"

namespace pipemap {
namespace {

class MetricsStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    MetricsRegistry::Global().Enable(true);
  }
  void TearDown() override {
    MetricsRegistry::Global().Enable(false);
    MetricsRegistry::Global().Reset();
  }
};

TEST_F(MetricsStressTest, SnapshotWhileWritingSeesConsistentValues) {
  auto* counter = MetricsRegistry::Global().GetCounter("stress.counter");
  auto* gauge = MetricsRegistry::Global().GetGauge("stress.gauge");
  auto* hist = MetricsRegistry::Global().GetHistogram("stress.hist");

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        counter->Add(1);
        gauge->Set(static_cast<double>(i));
        hist->Record(static_cast<double>((t + 1) * (i % 64) + 1));
      }
    });
  }

  // Scrape continuously while the writers run: every snapshot must be
  // internally consistent (counts within the eventual totals, histogram
  // cumulative counts monotone, exposition renderable) even though the
  // shards are being written under it.
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
      const auto counter_it = snap.counters.find("stress.counter");
      if (counter_it != snap.counters.end()) {
        EXPECT_LE(counter_it->second,
                  static_cast<std::uint64_t>(kWriters) * kPerWriter);
      }
      const auto hist_it = snap.histograms.find("stress.hist");
      if (hist_it != snap.histograms.end()) {
        const HistogramStats& stats = hist_it->second;
        std::uint64_t prev = 0;
        for (const auto& bucket : stats.CumulativeBuckets()) {
          EXPECT_GE(bucket.cumulative_count, prev);
          prev = bucket.cumulative_count;
        }
        // No prev-vs-count assertion here: a shard's count is read before
        // its buckets, so a racing Record can make the bucket sum lead
        // the count by a few samples mid-write. Quiescent totals below
        // are exact.
      }
      // The exposition path runs the same shard reads; it must stay
      // well-formed mid-write too.
      const std::string text = PrometheusExposition(snap);
      EXPECT_TRUE(text.empty() || text.back() == '\n');
    }
  });

  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  // Quiescent totals are exact.
  const MetricsSnapshot final_snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(final_snap.counters.at("stress.counter"),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(final_snap.histograms.at("stress.hist").count,
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

TEST_F(MetricsStressTest, ResetRacesWithWritersWithoutCorruption) {
  auto* counter = MetricsRegistry::Global().GetCounter("stress.reset");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) counter->Add(1);
    });
  }
  for (int i = 0; i < 50; ++i) {
    MetricsRegistry::Global().Reset();
    (void)MetricsRegistry::Global().Snapshot();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& w : writers) w.join();
  // The handle survives every Reset and still accumulates.
  MetricsRegistry::Global().Reset();
  counter->Add(3);
  EXPECT_EQ(counter->Total(), 3u);
}

}  // namespace
}  // namespace pipemap
