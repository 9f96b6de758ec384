#include "core/greedy_mapper.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "support/error.h"
#include "support/metrics.h"
#include "support/tracer.h"

namespace pipemap {
namespace {

/// Smallest budget at or above the memory minimum for which a valid
/// (feasibility-respecting) configuration exists; nullopt if none up to cap.
///
/// Validity is monotone in the budget: raising `b` only enlarges the set of
/// candidate (replicas, instance size) pairs ConfigureConstrained may pick
/// from (every instance size in [min_p, b/r] stays available at b+1), so a
/// budget that configures validly never becomes invalid with more
/// processors. That makes the smallest usable budget binary-searchable —
/// O(log P) ConfigureConstrained probes instead of the O(P) linear scan
/// that used to make greedy setup quadratic in P per module.
std::optional<int> MinUsableBudget(const Evaluator& eval, int first, int last,
                                   int cap, ReplicationPolicy policy,
                                   const ProcPredicate& feasible) {
  const int min_p = eval.MinProcs(first, last);
  if (min_p >= kInfeasibleProcs || min_p > cap) return std::nullopt;
  std::uint64_t probes = 0;
  auto usable = [&](int b) {
    ++probes;
    return ConfigureConstrained(eval, first, last, b, policy, feasible).valid;
  };
  std::optional<int> result;
  if (usable(min_p)) {
    result = min_p;
  } else if (usable(cap)) {
    // Invariant: lo is unusable, hi is usable.
    int lo = min_p, hi = cap;
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      (usable(mid) ? hi : lo) = mid;
    }
    result = hi;
  }
  PIPEMAP_COUNTER_ADD("greedy.min_budget_probes", probes);
  return result;
}

/// Throughput of (clustering, budgets) or nullopt if unconfigurable.
std::optional<double> TryThroughput(const Evaluator& eval,
                                    const Clustering& clustering,
                                    const std::vector<int>& budgets,
                                    ReplicationPolicy policy,
                                    const ProcPredicate& feasible) {
  const auto mapping =
      BuildMapping(eval, clustering, budgets, policy, feasible);
  if (!mapping) return std::nullopt;
  return eval.Throughput(*mapping);
}

struct GreedyState {
  Clustering clustering;
  std::vector<int> budgets;
  double throughput = 0.0;
};

}  // namespace

GreedyMapper::GreedyMapper(GreedyOptions options)
    : options_(std::move(options)) {}

MapResult GreedyMapper::MapWithClustering(const Evaluator& eval,
                                          int total_procs,
                                          const Clustering& clustering) const {
  const ReplicationPolicy policy = options_.base.replication;
  const ProcPredicate& feasible = options_.base.proc_feasible;
  const int l = static_cast<int>(clustering.size());
  PIPEMAP_CHECK(l >= 1, "GreedyMapper: clustering must be non-empty");

  PIPEMAP_TRACE_SPAN("greedy.cluster", "greedy", l);

  std::uint64_t work = 0;
  std::uint64_t step_probes = 0;
  std::uint64_t backtrack_evals = 0;
  std::uint64_t refinement_iters = 0;

  // Step 1: minimum viable budgets.
  std::vector<int> budgets(l);
  int used = 0;
  for (int i = 0; i < l; ++i) {
    const auto [first, last] = clustering[i];
    const auto min_b =
        MinUsableBudget(eval, first, last, total_procs, policy, feasible);
    if (!min_b) {
      throw Infeasible("GreedyMapper: module cannot be configured within "
                       "the processor budget");
    }
    budgets[i] = *min_b;
    used += *min_b;
  }
  if (used > total_procs) {
    throw Infeasible(
        "GreedyMapper: not enough processors for module memory minima");
  }

  auto throughput_of = [&](const std::vector<int>& b) {
    return TryThroughput(eval, clustering, b, policy, feasible);
  };

  const auto initial = throughput_of(budgets);
  PIPEMAP_CHECK(initial.has_value(),
                "GreedyMapper: minimum budgets are unconfigurable");
  GreedyState best{clustering, budgets, *initial};
  double current_throughput = *initial;

  // Greedy is an anytime algorithm: every refinement iteration leaves a
  // complete feasible assignment, so a deadline simply stops improving and
  // returns the best state reached so far with timed_out set.
  const Deadline* deadline = options_.base.deadline.get();
  bool timed_out = false;

  // Steps 2-3: hand out remaining processors one at a time.
  for (int free = total_procs - used; free > 0; --free) {
    if (deadline != nullptr && deadline->expired()) {
      timed_out = true;
      break;
    }
    ++refinement_iters;
    // Identify the bottleneck module under the current assignment.
    const auto mapping =
        BuildMapping(eval, clustering, budgets, policy, feasible);
    PIPEMAP_CHECK(mapping.has_value(), "GreedyMapper: assignment degenerated");
    int bottleneck = 0;
    double worst = -1.0;
    for (int i = 0; i < l; ++i) {
      const double r = eval.EffectiveResponse(*mapping, i);
      if (r > worst) {
        worst = r;
        bottleneck = i;
      }
    }

    std::vector<int> candidates;
    if (options_.variant == GreedyOptions::Variant::kBottleneckOnly) {
      candidates = {bottleneck};
    } else {
      // Order matters only for tie-breaking: prefer the bottleneck itself,
      // then its predecessor, then its successor.
      candidates.push_back(bottleneck);
      if (bottleneck > 0) candidates.push_back(bottleneck - 1);
      if (bottleneck + 1 < l) candidates.push_back(bottleneck + 1);
    }

    // For each candidate module we probe the one-processor step and, for
    // replicable modules, the smallest budget that raises the replica
    // count. The one-at-a-time walk cannot cross a replication boundary on
    // its own — the paper's "assigning 2 to 9 processors may have no
    // impact, but adding a 10th may dramatically improve" pathology — but
    // under the modified (effective) response function the boundary is a
    // known discrete feature, so the greedy probes it directly.
    int chosen = -1;
    int chosen_budget = 0;
    double chosen_throughput = -1.0;
    for (int c : candidates) {
      const auto [first, last] = clustering[c];
      std::vector<int> steps = {budgets[c] + 1};
      const int min_p = eval.MinProcs(first, last);
      if (eval.Replicable(first, last) && min_p < kInfeasibleProcs &&
          policy != ReplicationPolicy::kNone) {
        const int next_boundary = (budgets[c] / min_p + 1) * min_p;
        if (next_boundary > budgets[c] + 1) steps.push_back(next_boundary);
      }
      for (int step : steps) {
        if (step - budgets[c] > free) continue;  // cannot afford this step
        ++work;
        ++step_probes;
        const int saved = budgets[c];
        budgets[c] = step;
        const auto t = throughput_of(budgets);
        budgets[c] = saved;
        if (t && *t > chosen_throughput) {
          chosen_throughput = *t;
          chosen = c;
          chosen_budget = step;
        }
      }
    }
    if (chosen < 0) break;  // no candidate accepts another processor
    free -= chosen_budget - budgets[chosen] - 1;  // loop itself deducts 1
    budgets[chosen] = chosen_budget;
    current_throughput = chosen_throughput;
    if (current_throughput > best.throughput) {
      best.budgets = budgets;
      best.throughput = current_throughput;
    }
  }

  // Optional Theorem-2 backtracking: exhaustive search in a +/-radius box
  // around the best greedy budgets.
  if (options_.limited_backtracking && !timed_out) {
    int radius = options_.backtrack_radius;
    auto combos_for = [&](int r) {
      std::uint64_t combos = 1;
      for (int i = 0; i < l; ++i) {
        combos *= static_cast<std::uint64_t>(2 * r + 1);
        if (combos > options_.max_backtrack_combos) break;
      }
      return combos;
    };
    while (radius > 0 && combos_for(radius) > options_.max_backtrack_combos) {
      --radius;
    }
    if (radius > 0) {
      std::vector<int> trial = best.budgets;
      std::vector<int> min_b(l);
      for (int i = 0; i < l; ++i) {
        const auto [first, last] = clustering[i];
        min_b[i] = *MinUsableBudget(eval, first, last, total_procs, policy,
                                    feasible);
      }
      // Depth-first enumeration of budget deltas in [-radius, radius]^l.
      auto recurse = [&](auto&& self, int idx, int used_so_far) -> void {
        if (timed_out || used_so_far > total_procs) return;
        if (idx == l) {
          if (deadline != nullptr && deadline->expired()) {
            timed_out = true;
            return;
          }
          ++work;
          ++backtrack_evals;
          const auto t = throughput_of(trial);
          if (t && *t > best.throughput) {
            best.budgets = trial;
            best.throughput = *t;
          }
          return;
        }
        const int center = best.budgets[idx];
        for (int delta = -radius; delta <= radius; ++delta) {
          const int b = center + delta;
          if (b < min_b[idx]) continue;
          trial[idx] = b;
          self(self, idx + 1, used_so_far + b);
        }
        trial[idx] = center;
      };
      const std::vector<int> anchor = best.budgets;
      trial = anchor;
      recurse(recurse, 0, 0);
    }
  }

  const auto final_mapping =
      BuildMapping(eval, clustering, best.budgets, policy, feasible);
  PIPEMAP_CHECK(final_mapping.has_value(),
                "GreedyMapper: best assignment unconfigurable");
  PIPEMAP_COUNTER_ADD("greedy.refinement_iters", refinement_iters);
  PIPEMAP_COUNTER_ADD("greedy.budget_probes", step_probes);
  PIPEMAP_COUNTER_ADD("greedy.backtrack_evals", backtrack_evals);
  MapResult result;
  result.mapping = *final_mapping;
  result.throughput = eval.Throughput(result.mapping);
  result.work = work;
  result.timed_out = timed_out;
  return result;
}

MapResult GreedyMapper::Map(const Evaluator& eval, int total_procs) const {
  const int k = eval.num_tasks();
  PIPEMAP_TRACE_SPAN("greedy.map", "greedy", k);

  Clustering clustering = SingletonClustering(k);
  MapResult best;
  try {
    best = MapWithClustering(eval, total_procs, clustering);
  } catch (const Infeasible&) {
    // The singleton clustering may not fit a small machine even when a
    // coarser one does (module minima add up; merged modules share
    // processors). Seed from the fully merged chain instead and let the
    // split sweep refine it.
    if (!options_.base.allow_clustering) throw;
    clustering = {{0, k - 1}};
    best = MapWithClustering(eval, total_procs, clustering);
  }
  std::uint64_t work = best.work;
  const Deadline* deadline = options_.base.deadline.get();
  bool timed_out = best.timed_out;

  if (!options_.base.allow_clustering || k == 1) {
    best.work = work;
    return best;
  }

  // Merge/split sweeps (Section 4.2): each candidate clustering is scored
  // by a full greedy re-assignment, because a merge that looks unprofitable
  // at the current budgets can dominate once processors are re-balanced
  // (the budget freed by eliminating a transfer flows to the bottleneck).
  auto try_clustering = [&](const Clustering& candidate)
      -> std::optional<MapResult> {
    if (deadline != nullptr && deadline->expired()) {
      timed_out = true;
      return std::nullopt;
    }
    PIPEMAP_COUNTER_ADD("greedy.clusterings_tried", 1);
    try {
      MapResult r = MapWithClustering(eval, total_procs, candidate);
      work += r.work;
      timed_out = timed_out || r.timed_out;
      return r;
    } catch (const Infeasible&) {
      return std::nullopt;
    }
  };

  for (int pass = 0; pass < options_.clustering_passes && !timed_out;
       ++pass) {
    std::optional<Clustering> improved;
    MapResult improved_result;

    // Candidate merges of adjacent modules.
    for (int m = 0; m + 1 < static_cast<int>(clustering.size()); ++m) {
      Clustering merged = clustering;
      merged[m] = {clustering[m].first, clustering[m + 1].second};
      merged.erase(merged.begin() + m + 1);
      const auto r = try_clustering(merged);
      if (r && r->throughput > best.throughput &&
          (!improved || r->throughput > improved_result.throughput)) {
        improved = std::move(merged);
        improved_result = *r;
      }
    }
    // Candidate splits of multi-task modules.
    for (int m = 0; m < static_cast<int>(clustering.size()); ++m) {
      const auto [first, last] = clustering[m];
      for (int split = first; split < last; ++split) {
        Clustering splitted = clustering;
        splitted[m] = {first, split};
        splitted.insert(splitted.begin() + m + 1, {split + 1, last});
        const auto r = try_clustering(splitted);
        if (r && r->throughput > best.throughput &&
            (!improved || r->throughput > improved_result.throughput)) {
          improved = std::move(splitted);
          improved_result = *r;
        }
      }
    }

    if (!improved) break;
    clustering = std::move(*improved);
    best = std::move(improved_result);
  }

  best.work = work;
  best.timed_out = timed_out;
  return best;
}

}  // namespace pipemap
