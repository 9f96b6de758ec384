// Prometheus text exposition (version 0.0.4) rendered from a
// MetricsSnapshot, so any registry consumer — the server's `metrics`
// protocol op, a debug dump — can hand its counters, gauges, and
// histograms to a standard scraper.
//
// Mapping rules:
//   * names: the registry's "sub.system.metric" becomes
//     "pipemap_sub_system_metric" (every character outside
//     [a-zA-Z0-9_:] turns into '_', and the "pipemap_" prefix namespaces
//     the process). Units stay part of the name ("..._us", "..._bytes"),
//     exactly as the registry records them — the README's metric table
//     documents each one.
//   * counters → `# TYPE ... counter`, gauges → gauge.
//   * histograms → the fixed-bound cumulative export
//     (HistogramStats::CumulativeBuckets): exact power-of-two `le`
//     bounds over the occupied range, a `+Inf` bucket equal to the total
//     count, plus `_sum` and `_count` series. Counts are exact, not
//     quantile estimates — Prometheus computes its own quantiles from
//     the buckets.
//
// An empty snapshot renders to an empty (zero-series) document, which is
// still a valid exposition — what a scrape of a process that never turned
// metrics collection on returns.
#pragma once

#include <string>
#include <string_view>

#include "support/metrics.h"

namespace pipemap {

/// The full exposition document for `snapshot`, one family per metric,
/// families sorted by name (MetricsSnapshot's maps are ordered).
std::string PrometheusExposition(const MetricsSnapshot& snapshot);

/// "server.request_us" → "pipemap_server_request_us" (see mapping rules
/// above). Exposed for the tests and the docs generator.
std::string PrometheusName(std::string_view metric_name);

}  // namespace pipemap
