// Request generation, the response oracle and the in-process replay for
// the benchmark harness.
//
// Every input the server sees is built here: the six Table-2 paper
// chains (P=64) and seeded synthetic chains on P=64 (a full 8 x 8 grid),
// each serialized into a ready-to-send protocol frame.
//
// Replay() runs one such frame through the public functions the server's
// map/report handlers call, in the same order, and renders the fragment
// a correct server response must contain. On an uncached engine it is
// the oracle; with a SpanRecorder it is the traced per-layer run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/mapping_engine.h"
#include "spans.h"
#include "workloads/workload.h"

namespace perfbench {

/// One mapping problem in wire form.
struct Problem {
  std::string chain_text;
  std::string machine_text;
  /// Processor budget sent as `procs`.
  int procs = 0;
};

/// The six Table-2 configurations: FFT-Hist 256/512 x message/systolic,
/// Radar and Stereo, all on the 64-cell iWarp.
std::vector<pipemap::Workload> PaperWorkloads();

Problem ToProblem(const pipemap::Workload& workload);

/// A synthetic chain of 8-12 tasks (k = 8 + index % 5) on P=64, a full
/// 8 x 8 grid, with costs drawn from `seed`.
Problem SyntheticProblem(std::uint64_t seed, int index);

/// A map request's payload. `threads` is the solver thread count.
std::string MapFrame(const Problem& problem, int threads);

/// Runs `payload` (a map or report request) the way the server's
/// handler does and returns what a correct response contains, rendered as
/// the server renders it: the `"mapping": "..."` line of a map response,
/// or the indented `"report": {...}` block of a report response.
/// `use_cache` false makes it the uncached oracle. With a recorder, each
/// layer call is a span of request `request_id`.
std::string Replay(pipemap::MappingEngine& engine, const std::string& payload,
                   bool use_cache, SpanRecorder* spans = nullptr,
                   std::uint64_t request_id = 0);

/// Counts from one direct solver run (traced replay, core layer).
struct SolverCounts {
  std::uint64_t dp_work = 0;
  std::uint64_t dp_pruned_cells = 0;
  /// Max over mean of the DP's per-worker work at 4 threads.
  double dp_work_imbalance = 1.0;
};

/// Times GreedyMapper and DpMapper at 1 and 4 threads on the problem in
/// `payload`, as spans core.greedy, core.dp_t1 and core.dp_t4; the counts
/// are those of the 4-thread DP.
SolverCounts TimeSolvers(const std::string& payload, SpanRecorder* spans,
                         std::uint64_t request_id);

/// Value of the first `"key": ` in a flat JSON response, up to the next
/// comma or newline; empty when absent. Enough for the top-level scalar
/// fields of map/report responses, which come before any nested object.
std::string FieldValue(const std::string& json, const std::string& key);

}  // namespace perfbench
