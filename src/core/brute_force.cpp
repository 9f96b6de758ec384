#include "core/brute_force.h"

#include <atomic>
#include <limits>
#include <optional>
#include <vector>

#include "support/error.h"
#include "support/metrics.h"
#include "support/thread_pool.h"
#include "support/tracer.h"

namespace pipemap {
namespace {

/// Enumerates every clustering of a k-task chain (all boundary subsets)
/// and invokes `visit(clustering)`. `mask_begin`/`mask_end` bound the
/// boundary subsets visited so the enumeration can be split across
/// workers; each mask is owned by exactly one worker.
template <typename Visit>
void ForEachClustering(int k, bool allow_clustering, std::uint64_t mask_begin,
                       std::uint64_t mask_end, Visit&& visit) {
  for (std::uint64_t mask = mask_begin; mask < mask_end; ++mask) {
    Clustering clustering;
    int first = 0;
    for (int e = 0; e < k - 1; ++e) {
      const bool split = allow_clustering ? ((mask >> e) & 1) != 0 : true;
      if (split) {
        clustering.emplace_back(first, e);
        first = e + 1;
      }
    }
    clustering.emplace_back(first, k - 1);
    visit(mask, clustering);
  }
}

std::uint64_t NumClusterings(int k, bool allow_clustering) {
  return allow_clustering ? (std::uint64_t{1} << (k - 1)) : 1;
}

/// Per-worker best candidate. Merged by (objective, then mask, then the
/// order within the mask's sequential enumeration): because any single
/// mask is enumerated serially by one worker, this reproduces the serial
/// sweep's first-wins rule for every thread count.
template <typename ObjectiveBetter>
struct BestSlot {
  std::optional<Mapping> mapping;
  double objective = 0.0;
  std::uint64_t mask = 0;

  void Offer(const Mapping& m, double value, std::uint64_t candidate_mask,
             const ObjectiveBetter& better) {
    if (!mapping || better(value, objective)) {
      mapping = m;
      objective = value;
      mask = candidate_mask;
    }
  }

  void Merge(const BestSlot& other, const ObjectiveBetter& better) {
    if (!other.mapping) return;
    if (!mapping || better(other.objective, objective) ||
        (other.objective == objective && other.mask < mask)) {
      *this = other;
    }
  }
};

}  // namespace

BruteForceMapper::BruteForceMapper(BruteForceOptions options)
    : options_(std::move(options)) {}

MapResult BruteForceMapper::Map(const Evaluator& eval, int total_procs) const {
  const int k = eval.num_tasks();
  PIPEMAP_TRACE_SPAN("brute.map", "brute", k);
  const ReplicationPolicy policy = options_.base.replication;
  const ProcPredicate& feasible = options_.base.proc_feasible;
  const bool clustering_allowed = options_.base.allow_clustering;
  const int num_threads = ThreadPool::ResolveThreads(options_.base.num_threads);
  const std::uint64_t num_masks = NumClusterings(k, clustering_allowed);

  const auto better = [](double a, double b) { return a > b; };
  using Slot = BestSlot<decltype(better)>;
  std::vector<Slot> best(num_threads);
  std::atomic<std::uint64_t> work{0};
  const Deadline* deadline = options_.base.deadline.get();
  std::atomic<bool> expired{false};

  ParallelFor(
      num_threads, static_cast<std::int64_t>(num_masks),
      ParallelSchedule::kDynamic, 1,
      [&](int worker, std::int64_t begin, std::int64_t end) {
        ForEachClustering(
            k, clustering_allowed, static_cast<std::uint64_t>(begin),
            static_cast<std::uint64_t>(end),
            [&](std::uint64_t mask, const Clustering& clustering) {
          const int l = static_cast<int>(clustering.size());
          // Enumerate budget vectors recursively.
          std::vector<int> budgets(l, 0);
          auto recurse = [&](auto&& self, int idx, int used) -> void {
            if (expired.load(std::memory_order_relaxed)) return;
            if (idx == l) {
              if (deadline != nullptr && deadline->expired()) {
                expired.store(true, std::memory_order_relaxed);
                return;
              }
              if (work.fetch_add(1) + 1 > options_.max_evaluations) {
                throw ResourceLimit(
                    "BruteForceMapper: evaluation cap exceeded");
              }
              const auto mapping =
                  BuildMapping(eval, clustering, budgets, policy, feasible);
              if (!mapping) return;
              best[worker].Offer(*mapping, eval.Throughput(*mapping), mask,
                                 better);
              return;
            }
            for (int b = 1; used + b <= total_procs; ++b) {
              budgets[idx] = b;
              self(self, idx + 1, used + b);
            }
          };
          recurse(recurse, 0, 0);
        });
      });

  const bool timed_out = expired.load(std::memory_order_relaxed);
  Slot winner;
  for (const Slot& s : best) winner.Merge(s, better);
  if (!winner.mapping) {
    if (timed_out) {
      throw ResourceLimit(
          "BruteForceMapper: deadline expired before any feasible mapping "
          "was found");
    }
    throw Infeasible("BruteForceMapper: no valid mapping exists");
  }
  MapResult result;
  result.mapping = *winner.mapping;
  result.throughput = winner.objective;
  result.work = work.load();
  result.timed_out = timed_out;
  PIPEMAP_COUNTER_ADD("brute.evaluations", result.work);
  return result;
}

LatencyBruteResult BruteForceMinLatency(const Evaluator& eval,
                                        int total_procs,
                                        double min_throughput,
                                        const BruteForceOptions& options) {
  const int k = eval.num_tasks();
  PIPEMAP_TRACE_SPAN("brute.min_latency", "brute", k);
  const ProcPredicate& feasible = options.base.proc_feasible;
  const bool clustering_allowed = options.base.allow_clustering;
  const int num_threads = ThreadPool::ResolveThreads(options.base.num_threads);
  const std::uint64_t num_masks = NumClusterings(k, clustering_allowed);

  const auto better = [](double a, double b) { return a < b; };
  using Slot = BestSlot<decltype(better)>;
  std::vector<Slot> best(num_threads);
  std::atomic<std::uint64_t> work{0};
  const Deadline* deadline = options.base.deadline.get();
  std::atomic<bool> expired{false};

  ParallelFor(
      num_threads, static_cast<std::int64_t>(num_masks),
      ParallelSchedule::kDynamic, 1,
      [&](int worker, std::int64_t begin, std::int64_t end) {
        ForEachClustering(
            k, clustering_allowed, static_cast<std::uint64_t>(begin),
            static_cast<std::uint64_t>(end),
            [&](std::uint64_t mask, const Clustering& clustering) {
          const int l = static_cast<int>(clustering.size());
          Mapping mapping;
          mapping.modules.resize(l);
          // Enumerate per-module (instance size, replica count) pairs.
          auto recurse = [&](auto&& self, int idx, int used) -> void {
            if (expired.load(std::memory_order_relaxed)) return;
            if (idx == l) {
              if (deadline != nullptr && deadline->expired()) {
                expired.store(true, std::memory_order_relaxed);
                return;
              }
              if (work.fetch_add(1) + 1 > options.max_evaluations) {
                throw ResourceLimit("BruteForceMinLatency: evaluation cap"
                                    " exceeded");
              }
              if (min_throughput > 0.0 &&
                  eval.Throughput(mapping) < min_throughput) {
                return;
              }
              best[worker].Offer(mapping, eval.Latency(mapping), mask,
                                 better);
              return;
            }
            const auto [first, last] = clustering[idx];
            const int min_p = eval.MinProcs(first, last);
            if (min_p >= kInfeasibleProcs) return;
            const int max_r =
                (options.base.replication != ReplicationPolicy::kNone
                     ? eval.Replicable(first, last)
                     : false)
                    ? (total_procs - used) / min_p
                    : 1;
            for (int r = 1; r <= std::max(1, max_r); ++r) {
              for (int p = min_p; used + r * p <= total_procs; ++p) {
                if (feasible && !feasible(p)) continue;
                mapping.modules[idx] = ModuleAssignment{first, last, r, p};
                self(self, idx + 1, used + r * p);
              }
              if (used + (r + 1) * min_p > total_procs) break;
            }
          };
          recurse(recurse, 0, 0);
        });
      });

  const bool timed_out = expired.load(std::memory_order_relaxed);
  Slot winner;
  for (const Slot& s : best) winner.Merge(s, better);
  if (!winner.mapping) {
    if (timed_out) {
      throw ResourceLimit(
          "BruteForceMinLatency: deadline expired before any feasible "
          "mapping was found");
    }
    throw Infeasible("BruteForceMinLatency: no valid mapping exists");
  }
  LatencyBruteResult result;
  result.latency = winner.objective;
  result.throughput = eval.Throughput(*winner.mapping);
  result.mapping = std::move(*winner.mapping);
  result.work = work.load();
  result.timed_out = timed_out;
  PIPEMAP_COUNTER_ADD("brute.evaluations", result.work);
  return result;
}

}  // namespace pipemap
