// Process-wide metrics: named counters, gauges, and histograms with a
// lock-free fast path.
//
// The mapping engine runs inside tight parallel loops, so the recording
// path must cost next to nothing:
//   * every metric is sharded — each thread writes a cache-line-aligned
//     slot chosen by a thread-local shard index, so concurrent Add/Record
//     calls never contend on one line;
//   * recording is gated on a single relaxed atomic load
//     (MetricsRegistry::Enabled()); with collection off, an instrumented
//     call site is one predictable branch. That runtime switch is the only
//     way to turn collection on or off.
// Shards are only aggregated when a snapshot is taken, never on the hot
// path. Handles returned by GetCounter/GetGauge/GetHistogram are interned
// by name and remain valid for the registry's lifetime (Reset zeroes
// values but never invalidates handles, so call sites may cache them in
// function-local statics).
//
// Naming convention: "<subsystem>.<metric>", lower_snake within segments —
// e.g. "dp.cells_pruned", "evaluator.ecom_evals", "pool.region_items".
// Metric names must be string literals (the macros cache the handle on
// first use and never re-intern).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pipemap {

/// Aggregated view of one histogram at snapshot time. Percentiles are
/// estimated from power-of-two buckets (exact count/sum/min/max).
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  /// Bucket-estimated quantile for any q in [0, 1] (the pXX fields above
  /// are precomputed calls of this). The edge cases are pinned, not
  /// accidental: an empty histogram returns 0 for every q, and a
  /// single-sample histogram returns that sample exactly (min == max ==
  /// the sample, so no bucket estimate is involved).
  double Quantile(double q) const;

  /// One cumulative bucket of the fixed-bound export: the number of
  /// samples <= `le`. `le` bounds are exact powers of two (the internal
  /// bucket edges), so the cumulative counts are exact, monotone, and sum
  /// to `count` — the shape Prometheus text exposition requires. (A
  /// sample landing exactly on a power of two is bucketed upward, so for
  /// such boundary samples the count is effectively "< le"; measured
  /// doubles essentially never hit an edge exactly.)
  struct CumulativeBucket {
    double le = 0.0;
    std::uint64_t cumulative_count = 0;
  };

  /// Fixed-bound cumulative view of the distribution, trimmed to the
  /// occupied bucket range (empty histogram → empty vector). The last
  /// entry's cumulative_count always equals `count`; an implicit +Inf
  /// bucket is the consumer's to add (support/prometheus.h does).
  std::vector<CumulativeBucket> CumulativeBuckets() const;

  /// Aggregated power-of-two bucket counts, retained at snapshot time so
  /// Quantile can answer arbitrary q. Internal representation — consumers
  /// should use Quantile / the pXX fields / CumulativeBuckets.
  std::vector<std::uint64_t> buckets;
};

/// Point-in-time aggregation of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;

  /// One JSON object with "counters", "gauges", and "histograms" keys,
  /// entries sorted by name.
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  /// Per-metric write slots. More shards buy less contention at the cost
  /// of memory; 16 covers the pool's worker counts on typical hosts.
  static constexpr int kShards = 16;

  /// Monotone event count.
  class Counter {
   public:
    void Add(std::uint64_t n = 1);
    std::uint64_t Total() const;

   private:
    friend class MetricsRegistry;
    struct alignas(64) Shard {
      std::atomic<std::uint64_t> value{0};
    };
    std::array<Shard, kShards> shards_;
  };

  /// Last-writer-wins scalar, plus a monotone-max variant.
  class Gauge {
   public:
    void Set(double v);
    /// Raises the gauge to `v` if larger (e.g. peak table bytes).
    void Max(double v);
    double Value() const;

   private:
    std::atomic<double> value_{0.0};
  };

  /// Distribution of double-valued samples over power-of-two buckets.
  class Histogram {
   public:
    void Record(double v);
    HistogramStats Stats() const;

   private:
    friend class MetricsRegistry;
    friend struct pipemap::HistogramStats;
    /// Bucket b holds samples in [2^(b + kMinExp - 1), 2^(b + kMinExp));
    /// bucket 0 additionally absorbs everything smaller (incl. <= 0).
    static constexpr int kBuckets = 96;
    static constexpr int kMinExp = -40;
    static int BucketOf(double v);
    static double BucketRepresentative(int bucket);
    /// Inclusive upper edge of `bucket` (2^(bucket + kMinExp)); the `le`
    /// bound the fixed-bucket export publishes for it.
    static double BucketUpperEdge(int bucket);
    struct alignas(64) Shard {
      std::atomic<std::uint64_t> count{0};
      std::atomic<double> sum{0.0};
      std::atomic<double> min{0.0};
      std::atomic<double> max{0.0};
      std::atomic<bool> seeded{false};  // min/max hold a real sample
      std::array<std::atomic<std::uint32_t>, kBuckets> buckets{};
    };
    std::array<Shard, kShards> shards_;
  };

  /// The process-wide registry every PIPEMAP_* macro records into. Never
  /// destroyed (intentionally leaked), so pool workers may record during
  /// process teardown regardless of static destruction order.
  static MetricsRegistry& Global();

  /// The process-wide collection switch. Off by default; reading it is the
  /// entire disabled-path cost of an instrumented call site.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Interned handles; thread-safe, stable for the registry's lifetime.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Aggregates all shards. Safe to call while other threads record;
  /// concurrent increments may or may not be included.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric. Handles stay valid.
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;

  static std::atomic<bool> enabled_;
};

/// Enables metrics collection for a scope (a CLI command, the server's
/// lifetime, a benchmark run) and restores the previous state on exit.
/// Meant for the process's outermost owner of the switch: library code
/// never toggles it, so a solve cannot undo what another thread enabled.
class ScopedMetricsEnable {
 public:
  explicit ScopedMetricsEnable(bool enable)
      : prev_(MetricsRegistry::Enabled()) {
    if (enable) MetricsRegistry::Global().Enable(true);
  }
  ~ScopedMetricsEnable() { MetricsRegistry::Global().Enable(prev_); }
  ScopedMetricsEnable(const ScopedMetricsEnable&) = delete;
  ScopedMetricsEnable& operator=(const ScopedMetricsEnable&) = delete;

 private:
  const bool prev_;
};

}  // namespace pipemap

// Instrumentation macros. `name` must be a string literal; the handle is
// interned once per call site and cached in a function-local static.
#define PIPEMAP_COUNTER_ADD(name, n)                                     \
  do {                                                                   \
    if (::pipemap::MetricsRegistry::Enabled()) {                         \
      static ::pipemap::MetricsRegistry::Counter* const                  \
          pipemap_metric_handle_ =                                       \
              ::pipemap::MetricsRegistry::Global().GetCounter(name);     \
      pipemap_metric_handle_->Add(static_cast<std::uint64_t>(n));        \
    }                                                                    \
  } while (false)

#define PIPEMAP_GAUGE_SET(name, v)                                       \
  do {                                                                   \
    if (::pipemap::MetricsRegistry::Enabled()) {                         \
      static ::pipemap::MetricsRegistry::Gauge* const                    \
          pipemap_metric_handle_ =                                       \
              ::pipemap::MetricsRegistry::Global().GetGauge(name);       \
      pipemap_metric_handle_->Set(static_cast<double>(v));               \
    }                                                                    \
  } while (false)

#define PIPEMAP_GAUGE_MAX(name, v)                                       \
  do {                                                                   \
    if (::pipemap::MetricsRegistry::Enabled()) {                         \
      static ::pipemap::MetricsRegistry::Gauge* const                    \
          pipemap_metric_handle_ =                                       \
              ::pipemap::MetricsRegistry::Global().GetGauge(name);       \
      pipemap_metric_handle_->Max(static_cast<double>(v));               \
    }                                                                    \
  } while (false)

#define PIPEMAP_HISTOGRAM_RECORD(name, v)                                \
  do {                                                                   \
    if (::pipemap::MetricsRegistry::Enabled()) {                         \
      static ::pipemap::MetricsRegistry::Histogram* const                \
          pipemap_metric_handle_ =                                       \
              ::pipemap::MetricsRegistry::Global().GetHistogram(name);   \
      pipemap_metric_handle_->Record(static_cast<double>(v));            \
    }                                                                    \
  } while (false)
