// Shared mapper types: options, results, and the constrained module
// configuration rule that all mappers (dynamic programming, greedy, brute
// force) must share so their optimality claims are comparable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "core/mapping.h"
#include "core/warm_start.h"
#include "support/deadline.h"

namespace pipemap {

/// Predicate over per-instance processor counts; models machine/compiler
/// constraints such as the Fx compiler's rectangular-subarray requirement
/// (Section 6.1). Null means every count is allowed.
using ProcPredicate = std::function<bool(int)>;

/// Options shared by the mapping algorithms.
struct MapperOptions {
  ReplicationPolicy replication = ReplicationPolicy::kMaximal;
  bool allow_clustering = true;
  ProcPredicate proc_feasible;
  /// Upper bound on dynamic-programming table memory; exceeding it throws
  /// pipemap::ResourceLimit instead of silently thrashing.
  std::size_t max_table_bytes = std::size_t{3} << 30;
  /// Worker threads for the parallel mappers: <= 0 means hardware
  /// concurrency, 1 forces the bit-exact serial path. Every thread count
  /// produces identical mappings and objective values; `proc_feasible`
  /// must be safe to call concurrently when this is not 1.
  int num_threads = 0;
  /// Optional warm-start state shared across adjacent solves (frontier
  /// and budget sweeps). Null runs cold. Purely an accelerator: the DP
  /// returns identical mappings warm or cold (see core/warm_start.h for
  /// the sharing contract). Never part of the cache fingerprint.
  std::shared_ptr<WarmStartState> warm;
  /// Capture and reuse whole DP sweep states through `warm` for
  /// incremental re-solves (core/dp_sweep_state.h): a solve whose chain
  /// prefix and cost content are unchanged reuses the completed prefix
  /// stages and re-sweeps only the dirty suffix. Requires `warm`; ignored
  /// without it. Capture disables dominance pruning on non-terminal stages
  /// (so the kept tables are complete) and retains the stage tables
  /// between solves — a memory-for-latency trade the caller opts into.
  /// Like `warm`, purely an accelerator: results are byte-identical to a
  /// cold solve, and the flag is never part of the cache fingerprint.
  bool incremental = false;
  /// Optional cooperative deadline polled by solver inner loops. When it
  /// expires mid-solve the mapper stops refining and returns its best
  /// incumbent with MapResult::timed_out set (or throws ResourceLimit if no
  /// feasible incumbent exists yet). Null means solve to completion. Like
  /// `warm`, never part of the cache fingerprint: the engine refuses to
  /// cache timed-out results, so a deadline cannot change what a cacheable
  /// complete answer looks like.
  std::shared_ptr<const Deadline> deadline;
};

/// Result of a mapping run.
struct MapResult {
  Mapping mapping;
  /// Predicted throughput of `mapping` (data sets per second).
  double throughput = 0.0;
  /// Inner-loop iterations performed; exposes the O(P^4 k^2) vs O(P k)
  /// complexity contrast empirically.
  std::uint64_t work = 0;
  /// DP cells skipped by dominance pruning (0 for non-DP mappers). Like
  /// `work`, deterministic for a fixed thread count but may vary between
  /// thread counts; the mapping and throughput never do.
  std::uint64_t pruned_cells = 0;
  /// True when MapperOptions::deadline expired mid-solve and `mapping` is
  /// the best incumbent rather than a certified optimum.
  bool timed_out = false;
  /// Incremental provenance (MapperOptions::incremental, DP only): whether
  /// a captured sweep's clean prefix was reused, and the first stage index
  /// re-swept (-1 when the whole sweep ran). Informational — incremental
  /// results are byte-identical to cold ones.
  bool used_sweep_prefix = false;
  int resweep_from = -1;
  /// Per-worker share of `work` across the DP's parallel stage sweeps
  /// (empty for non-DP mappers); exposes partition imbalance.
  std::vector<std::uint64_t> worker_work;
};

/// A clustering: contiguous task ranges [first, last], in chain order.
using Clustering = std::vector<std::pair<int, int>>;

/// Clustering with every task in its own module.
Clustering SingletonClustering(int num_tasks);

/// Configures module [first, last] with `budget` processors under `policy`,
/// then lowers the per-instance count to the largest value satisfying
/// `feasible` (if given). Returns an invalid config when the budget cannot
/// satisfy the memory minimum or no feasible instance size exists.
ModuleConfig ConfigureConstrained(const Evaluator& eval, int first, int last,
                                  int budget, ReplicationPolicy policy,
                                  const ProcPredicate& feasible);

/// Builds the Mapping induced by a clustering and per-module processor
/// budgets; nullopt if any module cannot be configured.
std::optional<Mapping> BuildMapping(const Evaluator& eval,
                                    const Clustering& clustering,
                                    const std::vector<int>& budgets,
                                    ReplicationPolicy policy,
                                    const ProcPredicate& feasible);

}  // namespace pipemap
