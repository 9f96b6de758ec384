#include "core/dp_engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/dp_sweep_state.h"
#include "core/simd_kernels.h"
#include "support/aligned.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/thread_pool.h"
#include "support/tracer.h"

namespace pipemap::detail {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Backpointer layout: L_prev (6 bits) | b_prev (13 bits) | slot_prev
// (13 bits). L_prev == 0 marks a first-module state. slot_prev is the rank
// of the previous module's instance processor count in the solve's slot
// universe (see below) — slot ranks are monotone in the processor count,
// so tie ordering over slots equals tie ordering over raw counts.
std::uint32_t PackBp(int l_prev, int b_prev, int slot_prev) {
  assert(l_prev >= 0 && l_prev <= 63);
  assert(b_prev >= 0 && b_prev <= 8191);
  assert(slot_prev >= 0 && slot_prev <= 8191);
  return (static_cast<std::uint32_t>(l_prev) << 26) |
         (static_cast<std::uint32_t>(b_prev) << 13) |
         static_cast<std::uint32_t>(slot_prev);
}
constexpr int BpLen(std::uint32_t bp) { return static_cast<int>(bp >> 26); }
constexpr int BpBudget(std::uint32_t bp) {
  return static_cast<int>((bp >> 13) & 0x1fff);
}
constexpr int BpPrevSlot(std::uint32_t bp) {
  return static_cast<int>(bp & 0x1fff);
}

/// Best terminal state, totally ordered by (total, pu, b, slot) so
/// parallel row sweeps can merge per-worker candidates into exactly the
/// state the serial sweep would keep (the first one reaching the minimum
/// in (stage, pu, b, slot) order), independent of arrival order.
struct BestTerminal {
  double total = kInf;
  int j = -1, len = -1, pu = -1, b = -1, slot = -1;

  /// True when `other` (from the same stage) must replace this candidate.
  bool WorseThan(const BestTerminal& other) const {
    if (other.total != total) return other.total < total;
    if (other.pu != pu) return other.pu < pu;
    if (other.b != b) return other.b < b;
    return other.slot < slot;
  }
};

}  // namespace

ModuleConfig LatencyConfig(const Evaluator& eval, int first, int last,
                           int budget, double response_cap,
                           const ProcPredicate& feasible) {
  const int min_p = eval.MinProcs(first, last);
  if (budget < min_p || budget < 1 || min_p >= kInfeasibleProcs) return {};

  auto feasible_procs = [&](int replicas) {
    const int start = budget / replicas;
    if (!feasible) return start >= min_p ? start : 0;
    for (int p = start; p >= min_p; --p) {
      if (feasible(p)) return p;
    }
    return 0;
  };

  // With no throughput cap, replication is pointless for latency (it only
  // burns budget that narrower modules could use); pin replicas to 1.
  const bool replicable =
      eval.Replicable(first, last) && std::isfinite(response_cap);
  const int max_r = replicable ? budget / min_p : 1;
  ModuleConfig best;
  double best_body = kInf;
  for (int r = 1; r <= max_r; ++r) {
    const int procs = feasible_procs(r);
    if (procs == 0) continue;
    // For a given instance size, the maximal replica count within the
    // budget never hurts: latency depends only on the instance size, and
    // more replicas only loosen the throughput cap.
    const int replicas = replicable ? budget / procs : 1;
    const double body = eval.Body(first, last, procs);
    if (body / replicas > response_cap) continue;
    if (body < best_body ||
        (body == best_body && best.valid && replicas > best.replicas)) {
      best_body = body;
      best = {replicas, procs, true};
    }
  }
  return best;
}

namespace {

/// Everything RunChainDp shares between its serial scaffolding and the
/// parallel row sweeps. The range tables live behind a shared_ptr so a
/// warm start can hand them to the next solve.
struct DpContext {
  const Evaluator* eval;
  int k;
  int cap;
  int max_len;
  bool path_sum;
  double response_cap;
  std::shared_ptr<DpRangeTables> tables;

  std::size_t RangeIndex(int first, int last) const {
    return static_cast<std::size_t>(first) * k + last;
  }
  ModuleConfig Cfg(int first, int last, int budget) const {
    return tables->Config(RangeIndex(first, last), budget);
  }
  /// Flat per-budget rows of range (first, last) — the hot loops scan
  /// these instead of materializing ModuleConfig structs.
  std::size_t CfgBase(int first, int last) const {
    return RangeIndex(first, last) *
           static_cast<std::size_t>(tables->budget_stride);
  }
  int MinBudget(int first, int last) const {
    return tables->min_budget[RangeIndex(first, last)];
  }
};

/// Objective value of a fully specified clustering under the DP's exact
/// aggregation and response-cap rules; kInf when any module violates the
/// cap or lacks a valid configuration. Used to seed the dominance-pruning
/// threshold with a feasible incumbent, so the optimistic bounds have
/// something to beat from the first stage onward (the DP itself reaches
/// terminal states only at the end of the sweep).
double EvaluateClustering(const DpContext& ctx,
                          const std::vector<std::pair<int, int>>& modules,
                          const std::vector<int>& budgets) {
  const Evaluator& eval = *ctx.eval;
  const int l = static_cast<int>(modules.size());
  // Every module's configuration must be valid before any is used: the
  // communication terms below read the NEIGHBOR configs, so a trailing
  // invalid module (procs = 0) would otherwise reach ECom before its own
  // iteration rejects it. A warm-start incumbent carried across frontier
  // floors can legitimately land here with some modules invalid under the
  // tighter floor's tables.
  for (int i = 0; i < l; ++i) {
    if (!ctx.Cfg(modules[i].first, modules[i].second, budgets[i]).valid) {
      return kInf;
    }
  }
  double total = 0.0;
  for (int i = 0; i < l; ++i) {
    const auto [first, last] = modules[i];
    const ModuleConfig cfg = ctx.Cfg(first, last, budgets[i]);
    const double body = eval.Body(first, last, cfg.procs);
    double in_com = 0.0;
    if (i > 0) {
      const ModuleConfig prev = ctx.Cfg(modules[i - 1].first,
                                        modules[i - 1].second,
                                        budgets[i - 1]);
      in_com = eval.ECom(first - 1, prev.procs, cfg.procs);
    }
    double out_com = 0.0;
    if (i + 1 < l) {
      const ModuleConfig next = ctx.Cfg(modules[i + 1].first,
                                        modules[i + 1].second,
                                        budgets[i + 1]);
      out_com = eval.ECom(last, cfg.procs, next.procs);
    }
    // Mirror the DP's per-module cap test exactly: the terminal module is
    // charged in + body, interior modules in + body + out.
    const double resp = (in_com + body + out_com) / cfg.replicas;
    if (resp > ctx.response_cap) return kInf;
    if (ctx.path_sum) {
      total += body + out_com;
    } else {
      total = std::max(total, resp);
    }
  }
  return total;
}

/// A feasible upper bound on the optimum together with the mapping that
/// achieves it. The value tightens dominance pruning; the mapping is what a
/// deadline-interrupted solve returns when the sweep has not yet reached a
/// better terminal state (the incumbent-on-timeout guarantee).
struct Incumbent {
  double value = kInf;
  Mapping mapping;
};

/// Materializes the Mapping a clustering + budget split induces under the
/// current tables. Only meaningful when EvaluateClustering returned a
/// finite value, which guarantees every configuration is valid.
Mapping MappingFromClustering(const DpContext& ctx,
                              const std::vector<std::pair<int, int>>& modules,
                              const std::vector<int>& budgets) {
  Mapping mapping;
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const auto [first, last] = modules[i];
    const ModuleConfig cfg = ctx.Cfg(first, last, budgets[i]);
    mapping.modules.push_back(
        ModuleAssignment{first, last, cfg.replicas, cfg.procs});
  }
  return mapping;
}

/// Cheap feasible incumbent for dominance pruning: the whole chain as one
/// module (when clustering is allowed) and a singleton clustering whose
/// leftover processors are dealt greedily to the module with the worst
/// effective body time. Any feasible value is a valid upper bound on the
/// optimum; quality only affects how much gets pruned.
Incumbent IncumbentBound(const DpContext& ctx) {
  const Evaluator& eval = *ctx.eval;
  Incumbent best;
  auto offer = [&](const std::vector<std::pair<int, int>>& modules,
                   const std::vector<int>& budgets) {
    const double value = EvaluateClustering(ctx, modules, budgets);
    if (value < best.value) {
      best.value = value;
      best.mapping = MappingFromClustering(ctx, modules, budgets);
    }
  };

  if (ctx.max_len >= ctx.k) {
    offer({{0, ctx.k - 1}}, {ctx.cap});
  }

  std::vector<std::pair<int, int>> singles;
  std::vector<int> budgets;
  long long used = 0;
  for (int t = 0; t < ctx.k; ++t) {
    const int mb = ctx.MinBudget(t, t);
    if (mb >= kInfeasibleProcs || mb > ctx.cap) return best;
    singles.emplace_back(t, t);
    budgets.push_back(mb);
    used += mb;
  }
  if (used > ctx.cap) return best;
  for (long long leftover = ctx.cap - used; leftover > 0; --leftover) {
    // Give the next processor to the module whose effective body improves
    // the bottleneck the most; ties go to the earliest module so the
    // incumbent stays deterministic.
    int target = -1;
    double worst = -kInf;
    for (int t = 0; t < ctx.k; ++t) {
      if (budgets[t] + 1 > ctx.cap ||
          !ctx.Cfg(t, t, budgets[t] + 1).valid) {
        continue;
      }
      const ModuleConfig cfg = ctx.Cfg(t, t, budgets[t]);
      const double score = eval.Body(t, t, cfg.procs) / cfg.replicas;
      if (score > worst) {
        worst = score;
        target = t;
      }
    }
    if (target < 0) break;
    ++budgets[target];
  }
  offer(singles, budgets);
  return best;
}

/// Bound from a caller-supplied incumbent mapping (warm start): the value
/// of the incumbent's clustering and budget split under the CURRENT
/// problem's configuration rules. Using the current tables (rather than
/// the incumbent's recorded objective) keeps the bound safe when the
/// problem moved — an adjacent floor or budget — since the re-evaluated
/// value is achievable here or kInf. Empty (value kInf) when the incumbent
/// does not fit the current constraints at all.
Incumbent IncumbentFromMapping(const DpContext& ctx, const Mapping& mapping) {
  Incumbent out;
  if (!mapping.IsValidFor(ctx.k)) return out;
  std::vector<std::pair<int, int>> modules;
  std::vector<int> budgets;
  long long used = 0;
  for (const ModuleAssignment& m : mapping.modules) {
    const int len = m.num_tasks();
    const int budget = m.total_procs();
    if (len > ctx.max_len || budget < 1 || budget > ctx.cap) return out;
    modules.emplace_back(m.first_task, m.last_task);
    budgets.push_back(budget);
    used += budget;
  }
  if (used > ctx.cap) return out;
  out.value = EvaluateClustering(ctx, modules, budgets);
  if (out.value < kInf) {
    out.mapping = MappingFromClustering(ctx, modules, budgets);
  }
  return out;
}

/// Warm-start table-pool size. Three distinct table keys are live during a
/// frontier sweep (policy/bottleneck shares a key with policy/path-sum;
/// latency-body at the current floor plus the unconstrained latency-body
/// tables make three); one spare absorbs an interleaved odd solve.
constexpr std::size_t kMaxWarmTables = 4;

/// True when previously built range tables answer the current problem:
/// same evaluator and configuration rules, budgets tabulated at least as
/// far as this solve needs. A larger `tables->cap` is fine — the DP only
/// reads budgets up to its own cap, and per-budget configurations do not
/// depend on the cap they were tabulated under.
bool TablesUsable(const DpRangeTables& tables, const Evaluator* eval,
                  int cap, int max_len, ReplicationPolicy policy,
                  DpConfigRule rule, double response_cap,
                  bool has_predicate) {
  if (tables.eval != eval || tables.cap < cap || tables.max_len != max_len ||
      tables.rule != rule || tables.has_predicate != has_predicate) {
    return false;
  }
  if (rule == DpConfigRule::kPolicy) return tables.policy == policy;
  return tables.policy == policy && tables.response_cap == response_cap;
}

/// Stage-sweep partition floor: a worker must have at least this much
/// estimated work before fanning a stage out one way further. Stages
/// lighter than a few groups' worth run on fewer workers (often one) —
/// dispatching eight workers at a hundred-row stage is exactly the
/// 8-thread regression the scaling bench used to show.
constexpr std::int64_t kMinWorkPerWorker = 16384;

int RoundUp4(int n) { return (n + 3) & ~3; }

/// Empty cell marker: lo = 0xffff, hi = 0 (hi <= lo). See
/// FlatStage::slot_range.
constexpr std::uint32_t kEmptyCellRange = 0xffffu;

/// (Re)initializes a stage to the unreachable state. Only the per-cell
/// occupancy ranges and row flags are reset — the value/bp tables are
/// never bulk-cleared (a full clear of the O(cap^2 * slots) tables per
/// stage used to dominate the sweep's memory traffic); lanes outside a
/// cell's [lo, hi) range are garbage by contract and never read.
void ClearStage(FlatStage& s, std::size_t cells, int rows) {
  std::uint32_t* r = s.slot_range.data();
  for (std::size_t i = 0; i < cells; ++i) r[i] = kEmptyCellRange;
  for (int row = 0; row < rows; ++row) {
    s.row_live[static_cast<std::size_t>(row)].value.store(
        0, std::memory_order_relaxed);
  }
}

/// First stage index whose captured contents may disagree with `eval`:
/// the earliest dirty task, dirty edge + 1 (edge e is first charged when a
/// module ending at e extends, writing stages >= e + 1), or the end task
/// of a module range whose memory minimum / replicability changed. `k`
/// means nothing is dirty.
int ComputeDirtyFrom(const DpSweepState& s, const Evaluator& eval, int k,
                     int max_len) {
  int dirty = k;
  for (int t = 0; t < k; ++t) {
    if (s.task_hash[static_cast<std::size_t>(t)] != eval.TaskCostHash(t)) {
      dirty = std::min(dirty, t);
      break;  // later tasks cannot lower the minimum
    }
  }
  for (int e = 0; e < k - 1 && e + 1 < dirty; ++e) {
    if (s.edge_hash[static_cast<std::size_t>(e)] != eval.EdgeCostHash(e)) {
      dirty = std::min(dirty, e + 1);
      break;
    }
  }
  const std::vector<int>& mp = eval.min_procs_table();
  const std::vector<char>& rp = eval.replicable_table();
  for (int first = 0; first < k && dirty > 0; ++first) {
    const int last_max = std::min(k - 1, first + max_len - 1);
    for (int last = first; last <= last_max && last < dirty; ++last) {
      const std::size_t idx = static_cast<std::size_t>(first) * k + last;
      if (s.min_procs[idx] != mp[idx] || s.replicable[idx] != rp[idx]) {
        dirty = std::min(dirty, last);
      }
    }
  }
  return dirty;
}

}  // namespace

DpSolution RunChainDp(const DpProblem& problem) {
  PIPEMAP_CHECK(problem.eval != nullptr, "RunChainDp: evaluator required");
  const Evaluator& eval = *problem.eval;
  const int k = eval.num_tasks();
  const int cap = problem.total_procs;
  const MapperOptions& options = problem.options;
  PIPEMAP_CHECK(cap >= 1, "RunChainDp: need at least one processor");
  PIPEMAP_CHECK(cap <= 8191, "RunChainDp: processor count exceeds"
                             " backpointer encoding (8191)");
  PIPEMAP_CHECK(k <= 63, "RunChainDp: chain length exceeds backpointer"
                         " encoding (63)");
  PIPEMAP_CHECK(problem.max_effective_response > 0.0,
                "RunChainDp: response cap must be positive");
  const ReplicationPolicy policy = options.replication;
  const int num_threads = ThreadPool::ResolveThreads(options.num_threads);
  const Deadline* deadline = options.deadline.get();

  PIPEMAP_TRACE_SPAN("dp.run", "dp", k);
  PIPEMAP_COUNTER_ADD("dp.runs", 1);

  DpContext ctx;
  ctx.eval = &eval;
  ctx.k = k;
  ctx.cap = cap;
  ctx.max_len = options.allow_clustering ? k : 1;
  ctx.path_sum = problem.objective == DpObjective::kPathSum;
  ctx.response_cap = problem.max_effective_response;
  const int max_len = ctx.max_len;
  const bool path_sum = ctx.path_sum;
  const double response_cap = ctx.response_cap;

  // Per-module-range configuration tables: flat (range, budget) arrays,
  // the smallest usable budget per range, and the minimal suffix budgets.
  // A warm start whose tables match this problem skips the whole
  // tabulation; otherwise the tables are built here (ranges are
  // independent, so they tabulate in parallel; each worker writes only
  // its own ranges' rows) and handed to the warm state for the next solve.
  const std::shared_ptr<WarmStartState> warm = options.warm;
  bool reused_tables = false;
  if (warm) {
    for (std::size_t i = 0; i < warm->tables.size(); ++i) {
      if (warm->tables[i] &&
          TablesUsable(*warm->tables[i], &eval, cap, max_len, policy,
                       problem.config_rule, response_cap,
                       static_cast<bool>(options.proc_feasible))) {
        ctx.tables = warm->tables[i];
        // Move to front: most recently used survives pool eviction.
        warm->tables.erase(warm->tables.begin() +
                           static_cast<std::ptrdiff_t>(i));
        warm->tables.insert(warm->tables.begin(), ctx.tables);
        reused_tables = true;
        ++warm->tables_reused;
        PIPEMAP_COUNTER_ADD("dp.warm_tables_reused", 1);
        break;
      }
    }
  }
  if (!reused_tables) {
    ctx.tables = std::make_shared<DpRangeTables>();
    DpRangeTables& tables = *ctx.tables;
    tables.eval = &eval;
    tables.cap = cap;
    tables.max_len = max_len;
    tables.policy = policy;
    tables.rule = problem.config_rule;
    tables.response_cap = response_cap;
    tables.has_predicate = static_cast<bool>(options.proc_feasible);
    tables.budget_stride = cap + 1;
    const std::size_t cfg_size =
        static_cast<std::size_t>(k) * k * (cap + 1);
    tables.cfg_replicas.assign(cfg_size, 0);
    tables.cfg_procs.assign(cfg_size, 0);
    tables.cfg_valid.assign(cfg_size, 0);
    tables.min_budget.assign(static_cast<std::size_t>(k) * k,
                             kInfeasibleProcs);
    std::vector<std::pair<int, int>> ranges;
    for (int first = 0; first < k; ++first) {
      for (int last = first; last < std::min(k, first + max_len); ++last) {
        ranges.emplace_back(first, last);
      }
    }
    {
      PIPEMAP_TRACE_SPAN("dp.cfg_cache", "dp",
                         static_cast<std::int64_t>(ranges.size()));
      PIPEMAP_COUNTER_ADD("dp.cfg_ranges",
                          static_cast<std::uint64_t>(ranges.size()));
      ParallelFor(
          num_threads, static_cast<std::int64_t>(ranges.size()),
          ParallelSchedule::kDynamic, 1,
          [&](int, std::int64_t begin, std::int64_t end) {
            for (std::int64_t i = begin; i < end; ++i) {
              const auto [first, last] = ranges[i];
              const std::size_t ri = ctx.RangeIndex(first, last);
              const std::size_t base = ri * (cap + 1);
              for (int b = 1; b <= cap; ++b) {
                const ModuleConfig cfg =
                    problem.config_rule == DpConfigRule::kLatencyBody
                        ? LatencyConfig(eval, first, last, b, response_cap,
                                        options.proc_feasible)
                        : ConfigureConstrained(eval, first, last, b, policy,
                                               options.proc_feasible);
                tables.cfg_replicas[base + b] = cfg.replicas;
                tables.cfg_procs[base + b] = cfg.valid ? cfg.procs : 0;
                tables.cfg_valid[base + b] = cfg.valid ? 1 : 0;
                if (cfg.valid && tables.min_budget[ri] > b) {
                  tables.min_budget[ri] = b;
                }
              }
            }
          });
    }

    // Minimal total budget needed to map tasks t..k-1 (for pruning and to
    // detect infeasibility early).
    tables.suffix_min.assign(k + 1, 0);
    for (int t = k - 1; t >= 0; --t) {
      long long best = std::numeric_limits<long long>::max() / 4;
      for (int last = t; last < std::min(k, t + max_len); ++last) {
        const int mb = tables.min_budget[ctx.RangeIndex(t, last)];
        if (mb >= kInfeasibleProcs) continue;
        best = std::min(
            best, static_cast<long long>(mb) + tables.suffix_min[last + 1]);
      }
      tables.suffix_min[t] = best;
    }
    if (warm) {
      warm->tables.insert(warm->tables.begin(), ctx.tables);
      if (warm->tables.size() > kMaxWarmTables) {
        warm->tables.resize(kMaxWarmTables);
      }
      ++warm->tables_built;
    }
  }
  const std::vector<long long>& suffix_min = ctx.tables->suffix_min;
  if (suffix_min[0] > cap) {
    throw Infeasible(
        "RunChainDp: not enough processors to satisfy module memory minima");
  }
  const char* cfg_valid = ctx.tables->cfg_valid.data();
  const int* cfg_procs = ctx.tables->cfg_procs.data();
  const int* cfg_replicas = ctx.tables->cfg_replicas.data();

  // ---------------------------------------------------------------------
  // Slot universe: the distinct per-instance processor counts any valid
  // configuration can hand to its successor, plus 0 for "no predecessor".
  // The previous-procs axis of the DP state is indexed by slot rank
  // instead of raw count — the axis shrinks from cap+1 to the number of
  // counts that actually occur, which is what makes the per-cell slot
  // rows short enough to scan with one or two vector loads. Ranks are
  // ascending in the processor count, so every tie-break over slots
  // matches the serial tie-break over raw counts.
  // ---------------------------------------------------------------------
  std::vector<int> slot_of(static_cast<std::size_t>(cap) + 1, -1);
  std::vector<int> slot_procs;
  {
    std::vector<char> present(static_cast<std::size_t>(cap) + 1, 0);
    present[0] = 1;
    for (int first = 0; first < k; ++first) {
      for (int last = first; last < std::min(k, first + max_len); ++last) {
        const std::size_t base = ctx.CfgBase(first, last);
        for (int b = 1; b <= cap; ++b) {
          if (cfg_valid[base + b]) present[cfg_procs[base + b]] = 1;
        }
      }
    }
    for (int p = 0; p <= cap; ++p) {
      if (present[p]) {
        slot_of[p] = static_cast<int>(slot_procs.size());
        slot_procs.push_back(p);
      }
    }
  }
  const int nslots = static_cast<int>(slot_procs.size());
  const int nslots4 = RoundUp4(nslots);
  // Pad the slot pitch to 16 doubles: value rows start on cache lines
  // (16 * 8 = two lines) and bp rows (4-byte entries) on their own line,
  // so workers writing neighbouring (pu, b) cells never share one.
  const int slot_pitch = (nslots + 15) & ~15;

  // Upper bound on the optimum from cheap heuristic mappings, tightened
  // by the warm start's incumbent when one fits the current constraints.
  // Dominance pruning skips cells whose optimistic bound strictly exceeds
  // the threshold, so a state that ties or beats the incumbent is never
  // lost and the returned mapping is identical with pruning off — and
  // therefore identical warm or cold.
  Incumbent incumbent = IncumbentBound(ctx);
  bool seeded_incumbent = false;
  if (warm && warm->incumbent) {
    Incumbent seeded = IncumbentFromMapping(ctx, *warm->incumbent);
    if (seeded.value < incumbent.value) {
      incumbent = std::move(seeded);
      seeded_incumbent = true;
      ++warm->incumbents_seeded;
      PIPEMAP_COUNTER_ADD("dp.warm_incumbents_seeded", 1);
    }
  }

  // ---------------------------------------------------------------------
  // Incremental re-solve: check a captured sweep out of the warm state
  // (exclusively — it is re-attached only on success), find the first
  // stage whose inputs changed, and keep every earlier stage's tables.
  // Reuse additionally requires the gate inputs to agree: identical slot
  // universe and identical suffix-budget bounds over the clean prefix
  // (both gate which cells exist). When anything disqualifies the capture
  // the solve silently runs the full sweep — incremental is an
  // accelerator, never a semantic switch.
  //
  // Capture runs with dominance pruning disabled on non-terminal stages
  // so the kept tables are complete. That is exactness-preserving in both
  // directions: a write emitted from a cell the pruned sweep would have
  // skipped carries a value >= its cell bound > threshold >= optimum, and
  // values never decrease along a chain (max-aggregation, or adding
  // non-negative costs), so no such write can reach, beat, or tie the
  // optimum's terminal state — the mapping and objective are bitwise what
  // the pruned cold solve returns.
  // ---------------------------------------------------------------------
  const bool want_capture = options.incremental && warm && eval.tabulated();
  std::shared_ptr<DpSweepState> sweep;
  bool used_sweep_prefix = false;
  // First stage (end-task index) that must be re-swept; k-1 at minimum is
  // always re-swept so the terminal candidates are re-selected.
  int rebuild_from = 0;
  if (want_capture && warm->sweep) {
    std::shared_ptr<DpSweepState> prior = std::move(warm->sweep);
    warm->sweep.reset();
    const DpSweepState& s = *prior;
    const bool key_ok =
        s.k == k && s.cap == cap && s.max_len == max_len &&
        s.policy == policy && s.rule == problem.config_rule &&
        s.response_cap == response_cap &&
        s.has_predicate == static_cast<bool>(options.proc_feasible) &&
        s.path_sum == path_sum && s.slot_procs == slot_procs &&
        s.slot_pitch == slot_pitch;
    if (key_ok) {
      int dirty = ComputeDirtyFrom(s, eval, k, max_len);
      bool gates_ok = true;
      for (int t = 0; t <= std::min(dirty, k); ++t) {
        if (s.suffix_min[static_cast<std::size_t>(t)] != suffix_min[t]) {
          gates_ok = false;
          break;
        }
      }
      if (gates_ok && dirty > 0) {
        sweep = std::move(prior);
        used_sweep_prefix = true;  // dirty == k reuses every stage but last
        rebuild_from = std::min(dirty, k - 1);
        ++warm->prefix_reused;
        PIPEMAP_COUNTER_ADD("dp.sweep_prefix_reused", 1);
      }
    }
  }
  const bool fresh_grid = sweep == nullptr;
  if (fresh_grid) {
    sweep = std::make_shared<DpSweepState>();
    sweep->stages.resize(static_cast<std::size_t>(k) * k);
    rebuild_from = 0;
  }
  DpSweepState& grid = *sweep;
  auto stage_at = [&grid, k](int j, int len) -> FlatStage& {
    return grid.stages[static_cast<std::size_t>(j) * k + (len - 1)];
  };

  const std::size_t stage_cells =
      static_cast<std::size_t>(cap + 1) * (cap + 1);
  const std::size_t stage_extent = stage_cells * slot_pitch;
  const std::size_t bytes_per_stage =
      stage_extent * (sizeof(double) + sizeof(std::uint32_t)) +
      stage_cells * sizeof(std::uint32_t) +
      static_cast<std::size_t>(cap + 1) * kCacheLineBytes;
  auto ensure_stage = [&](int j, int len) -> FlatStage& {
    FlatStage& s = stage_at(j, len);
    if (!s.allocated) {
      grid.allocated_bytes += bytes_per_stage;
      if (grid.allocated_bytes > options.max_table_bytes) {
        throw ResourceLimit(
            "RunChainDp: DP table exceeds max_table_bytes; reduce P or use "
            "GreedyMapper");
      }
      s.value.Reset(stage_extent);
      s.bp.Reset(stage_extent);
      s.slot_range.Reset(stage_cells);
      s.row_live =
          std::vector<CacheLinePadded<std::atomic<char>>>(cap + 1);
      ClearStage(s, stage_cells, cap + 1);
      s.allocated = true;
    }
    return s;
  };
  // Stages at or past the rebuild point are re-derived from scratch.
  if (!fresh_grid) {
    for (int j = rebuild_from; j < k; ++j) {
      for (int len = 1; len <= std::min(max_len, j + 1); ++len) {
        FlatStage& s = stage_at(j, len);
        if (s.allocated) ClearStage(s, stage_cells, cap + 1);
      }
    }
  }
  auto cell_index = [cap](int pu, int b) {
    return static_cast<std::size_t>(pu) * (cap + 1) + b;
  };

  // Single write point for a stage cell (pu, b, dslot): maintains the
  // cell's initialized-lane range (gap lanes fill with +inf on extension),
  // applies the strict-< minimum rule against initialized lanes, and
  // stores value + backpointer together. Every (cell, slot) is owned by
  // exactly one worker within a sweep (the source row of a write to
  // (pu + b2, b2) is recoverable as pu), so no synchronization is needed.
  // Returns whether the cell was updated.
  auto cell_write = [slot_pitch](FlatStage& s, std::size_t cell, int dslot,
                                 double nv, std::uint32_t bpv) -> bool {
    const std::size_t base = cell * static_cast<std::size_t>(slot_pitch);
    double* lanes = s.value.data() + base;
    std::uint32_t& range = s.slot_range[cell];
    const int lo = static_cast<int>(range & 0xffffu);
    const int hi = static_cast<int>(range >> 16);
    if (hi <= lo) {
      range = static_cast<std::uint32_t>(dslot) |
              (static_cast<std::uint32_t>(dslot + 1) << 16);
    } else if (dslot < lo) {
      for (int g = dslot + 1; g < lo; ++g) lanes[g] = kInf;
      range = static_cast<std::uint32_t>(dslot) |
              (static_cast<std::uint32_t>(hi) << 16);
    } else if (dslot >= hi) {
      for (int g = hi; g < dslot; ++g) lanes[g] = kInf;
      range = static_cast<std::uint32_t>(lo) |
              (static_cast<std::uint32_t>(dslot + 1) << 16);
    } else if (!(nv < lanes[dslot])) {
      return false;
    }
    lanes[dslot] = nv;
    s.bp[base + dslot] = bpv;
    return true;
  };

  // Seed: first module [0 .. len-1] with budget b. Under prefix reuse,
  // seeds landing in clean stages are already in the captured tables.
  for (int len = 1; len <= std::min(max_len, k); ++len) {
    const int last = len - 1;
    if (!fresh_grid && last < rebuild_from) continue;
    const std::size_t cbase = ctx.CfgBase(0, last);
    const long long suffix_needed = suffix_min[last + 1];
    for (int b = 1; b <= cap; ++b) {
      if (!cfg_valid[cbase + b]) continue;
      if (b + suffix_needed > cap) break;
      FlatStage& s = ensure_stage(last, len);
      if (cell_write(s, cell_index(b, b), 0, 0.0, PackBp(0, 0, 0))) {
        s.row_live[b].value.store(1, std::memory_order_relaxed);
      }
    }
  }

  BestTerminal best;
  std::uint64_t work = 0;
  std::uint64_t pruned_cells = 0;

  // Per-worker reduction slots for the parallel row sweeps, each on its
  // own cache line so concurrent accumulation never bounces a line.
  struct WorkerAcc {
    BestTerminal best;
    std::uint64_t work = 0;
    std::uint64_t pruned = 0;
  };
  std::vector<CacheLinePadded<WorkerAcc>> workers(
      static_cast<std::size_t>(num_threads));
  std::vector<std::uint64_t> worker_work_total(
      static_cast<std::size_t>(num_threads), 0);

  // Per-worker scratch for the vectorized transition kernel: the compacted
  // source arrays of the current cell and the per-target running minima.
  // Rounded up so the kernels can always read/write whole vectors.
  struct WorkerScratch {
    std::vector<double> src_v, src_c, src_d;
    std::vector<int> src_slot;
    std::vector<double> best, src_idx;
  };
  std::vector<WorkerScratch> scratch(static_cast<std::size_t>(num_threads));
  for (WorkerScratch& ws : scratch) {
    ws.src_v.resize(static_cast<std::size_t>(nslots4));
    ws.src_c.resize(static_cast<std::size_t>(nslots4));
    ws.src_d.resize(static_cast<std::size_t>(nslots4));
    ws.src_slot.resize(static_cast<std::size_t>(nslots));
    const std::size_t cap4 = static_cast<std::size_t>(RoundUp4(cap + 1));
    ws.best.assign(cap4, kInf);
    ws.src_idx.assign(cap4, -1.0);
  }

  // Whether dominance pruning may skip cells. Capture keeps the tables
  // complete, so pruning stays off on stages with outgoing writes; the
  // terminal stage writes nothing, so it always prunes.
  const bool capture_tables = want_capture;

  // Cooperative deadline: any worker observing expiry raises the shared
  // flag; the other workers bail at their next row boundary and the stage
  // loop stops. The partially swept stage's candidates are discarded (a
  // partial sweep is not reproducible), so `best` only ever reflects fully
  // completed stages and its backpointer chain is intact.
  std::atomic<bool> deadline_hit{false};
  bool aborted = false;

  // Process stages in increasing end-task order so transitions always move
  // forward. Under prefix reuse, stages before the rebuild point are
  // re-swept only as sources for rebuilt destinations (a module spans at
  // most max_len tasks, so stages earlier than rebuild_from - max_len
  // cannot write into the rebuilt suffix at all).
  const int sweep_from =
      fresh_grid ? 0 : std::max(0, rebuild_from - max_len);
  for (int j = sweep_from; j < k && !aborted; ++j) {
    // Clean source stages only emit into rebuilt destinations; their own
    // tables and terminal candidates are already accounted for.
    const bool source_only = !fresh_grid && j < rebuild_from;
    for (int len = 1; len <= std::min(max_len, j + 1); ++len) {
      if (deadline != nullptr && deadline->ExpiredNow()) {
        aborted = true;
        break;
      }
      FlatStage& s = stage_at(j, len);
      if (!s.allocated) continue;
      const int first = j - len + 1;
      const std::size_t cbase = ctx.CfgBase(first, j);
      const bool is_last_stage = (j == k - 1);

      // Row-level suffix prune: a state using pu processors still needs
      // suffix_min[j+1] more, whatever module comes next. Collect the rows
      // that can both complete and hold at least one reachable state.
      const long long row_suffix = is_last_stage ? 0 : suffix_min[j + 1];
      std::vector<int> live_rows;
      for (int pu = 1; pu <= cap; ++pu) {
        if (pu + row_suffix > cap) break;
        if (s.row_live[pu].value.load(std::memory_order_relaxed)) {
          live_rows.push_back(pu);
        }
      }
      if (live_rows.empty()) continue;

      PIPEMAP_TRACE_SPAN("dp.stage", "dp", j);
      PIPEMAP_COUNTER_ADD("dp.stages_swept", 1);
      PIPEMAP_HISTOGRAM_RECORD("dp.stage_live_rows",
                               static_cast<double>(live_rows.size()));

      // Everything in a cell's transition that depends only on the current
      // module's configuration — its body time, its incoming transfer from
      // each possible predecessor, its outgoing transfer to each target
      // budget — is loop-invariant across the O(cap^2) cells sharing that
      // configuration. Cache it per distinct configuration ("rank") up
      // front, so the per-cell loop does table lookups only. Ranks cover
      // every valid budget b <= the largest live row (the per-row loops
      // scan b <= pu).
      const int max_live_pu = live_rows.back();
      std::vector<int> rank_of_slot(static_cast<std::size_t>(nslots), -1);
      std::vector<int> rank_slots;
      for (int b = 1; b <= max_live_pu; ++b) {
        if (!cfg_valid[cbase + b]) continue;
        const int sl = slot_of[static_cast<std::size_t>(cfg_procs[cbase + b])];
        if (rank_of_slot[static_cast<std::size_t>(sl)] < 0) {
          rank_of_slot[static_cast<std::size_t>(sl)] =
              static_cast<int>(rank_slots.size());
          rank_slots.push_back(sl);
        }
      }
      const int nranks = static_cast<int>(rank_slots.size());
      // body per rank, and (incoming transfer + body) per (rank, source
      // slot) — the exact expression the serial sweep computes per cell
      // (slot 0 is the no-predecessor marker: in_com = 0.0; entries for
      // slot > 0 at first == 0 are never read, first-module stages only
      // hold seeds).
      std::vector<double> body_of_rank(static_cast<std::size_t>(nranks));
      std::vector<double> in_body(static_cast<std::size_t>(nranks) * nslots);
      for (int r = 0; r < nranks; ++r) {
        const int procs = slot_procs[static_cast<std::size_t>(rank_slots[r])];
        const double body = eval.Body(first, j, procs);
        body_of_rank[r] = body;
        double* row = in_body.data() + static_cast<std::size_t>(r) * nslots;
        row[0] = 0.0 + body;
        for (int slot = 1; slot < nslots; ++slot) {
          row[slot] =
              first > 0
                  ? eval.ECom(first - 1, slot_procs[slot], procs) + body
                  : body;
        }
      }

      // Pre-allocate every stage this sweep can write, so the parallel
      // rows never mutate the grid, and flatten each target's valid
      // budgets into ascending arrays the kernel can scan, together with
      // the outgoing-transfer costs per rank (gathered once per stage
      // instead of once per cell). Reachability matches the per-row budget
      // test at the smallest live row (the easiest to extend).
      struct Target {
        FlatStage* stage = nullptr;
        long long tail_needed = 0;
        int next_min = kInfeasibleProcs;
        std::vector<int> b2s;  // ascending valid budgets
        int o_pitch = 0;       // b2s.size() rounded up to 4
        std::vector<double> o;  // [rank][idx]: ECom(j, procs(rank), procs2)
      };
      std::vector<Target> targets;
      if (!is_last_stage) {
        const int min_live_pu = live_rows.front();
        for (int len2 = 1; len2 <= std::min(max_len, k - 1 - j); ++len2) {
          const int next_last = j + len2;
          Target t;
          t.next_min = ctx.MinBudget(j + 1, next_last);
          t.tail_needed = suffix_min[next_last + 1];
          const bool reachable =
              t.next_min < kInfeasibleProcs &&
              min_live_pu + t.next_min + t.tail_needed <= cap;
          // Under prefix reuse, writes into clean stages are already in
          // the captured tables (and would be no-ops: the min-update is
          // idempotent); skip them.
          const bool wanted =
              fresh_grid || next_last >= rebuild_from;
          if (reachable && wanted) {
            t.stage = &ensure_stage(next_last, len2);
            const std::size_t nbase = ctx.CfgBase(j + 1, next_last);
            std::vector<int> procs2;
            for (int b2 = 1; b2 <= cap; ++b2) {
              if (!cfg_valid[nbase + b2]) continue;
              t.b2s.push_back(b2);
              procs2.push_back(cfg_procs[nbase + b2]);
            }
            const int count = static_cast<int>(t.b2s.size());
            t.o_pitch = RoundUp4(count);
            t.o.assign(static_cast<std::size_t>(nranks) * t.o_pitch, kInf);
            for (int r = 0; r < nranks; ++r) {
              const int procs = slot_procs[rank_slots[r]];
              const double* erow =
                  eval.tabulated() ? eval.EComRow(j, procs) : nullptr;
              double* dst = t.o.data() + static_cast<std::size_t>(r) * t.o_pitch;
              for (int idx = 0; idx < count; ++idx) {
                dst[idx] = erow != nullptr ? erow[procs2[idx]]
                                           : eval.ECom(j, procs, procs2[idx]);
              }
            }
          }
          targets.push_back(std::move(t));
        }
      }
      if (source_only) {
        bool any_target = false;
        for (const Target& t : targets) any_target |= t.stage != nullptr;
        if (!any_target) continue;
      }

      // The dominance threshold stays frozen for the whole stage: `best`
      // only advances on terminal stages, which have no outgoing
      // transitions, so every thread count sees the same table contents.
      // Terminal rows additionally prune against their worker-local best.
      const double frozen_threshold = std::min(incumbent.value, best.total);

      for (int w = 0; w < num_threads; ++w) {
        workers[static_cast<std::size_t>(w)].value.best = BestTerminal{};
      }

      auto sweep_rows = [&](int worker, std::int64_t row_begin,
                            std::int64_t row_end) {
        WorkerAcc& acc = workers[static_cast<std::size_t>(worker)].value;
        WorkerScratch& ws = scratch[static_cast<std::size_t>(worker)];
        BestTerminal local_best = acc.best;
        std::uint64_t local_work = 0;
        std::uint64_t local_pruned = 0;
        for (std::int64_t row = row_begin; row < row_end; ++row) {
          if (deadline != nullptr &&
              (deadline_hit.load(std::memory_order_relaxed) ||
               deadline->expired())) {
            deadline_hit.store(true, std::memory_order_relaxed);
            break;
          }
          const int pu = live_rows[static_cast<std::size_t>(row)];
          for (int b = 1; b <= pu; ++b) {
            if (!cfg_valid[cbase + b]) continue;
            const std::size_t cell = cell_index(pu, b);
            const std::uint32_t crange = s.slot_range[cell];
            const int lo = static_cast<int>(crange & 0xffffu);
            const int hi = static_cast<int>(crange >> 16);
            if (hi <= lo) continue;  // cell never written
            const int procs = cfg_procs[cbase + b];
            const int replicas = cfg_replicas[cbase + b];
            const int rank = rank_of_slot[static_cast<std::size_t>(
                slot_of[static_cast<std::size_t>(procs)])];
            const double* vrow =
                s.value.data() + cell * static_cast<std::size_t>(slot_pitch);

            // Dominance prune: the best completion through (pu, b, *) is
            // at least the cheapest incoming value combined with this
            // module's body at zero boundary communication. Strictly worse
            // than the threshold means no completion can beat or tie the
            // optimum. With capture on, the prune is disabled (the tables
            // must stay complete); the extra writes can never displace the
            // optimum — see the capture comment above. The min over the
            // initialized lanes equals the min over the whole conceptual
            // row: uninitialized lanes are +inf by definition.
            const double v_min = simd::RowMin(vrow + lo, hi - lo);
            const double body = body_of_rank[static_cast<std::size_t>(rank)];
            const double cell_bound =
                path_sum ? v_min + body
                         : std::max(v_min, body / replicas);
            if ((!capture_tables || is_last_stage) &&
                cell_bound > std::min(frozen_threshold, local_best.total)) {
              ++local_pruned;
              continue;
            }

            // Compact the finite sources of this cell: value, in + body,
            // value + body, and the slot id, in ascending slot order (the
            // serial sweep's previous-procs order, so first-wins ties
            // resolve identically).
            const double* in_body_row =
                in_body.data() + static_cast<std::size_t>(rank) * nslots;
            int n = 0;
            for (int slot = lo; slot < hi; ++slot) {
              const double v = vrow[slot];
              if (v == kInf) continue;
              ws.src_v[n] = v;
              ws.src_c[n] = in_body_row[slot];
              ws.src_d[n] = v + body;
              ws.src_slot[n] = slot;
              ++n;
            }
            const double replicas_d = static_cast<double>(replicas);

            if (is_last_stage) {
              for (int i = 0; i < n; ++i) {
                ++local_work;
                const double resp = ws.src_c[i] / replicas_d;
                if (resp > response_cap) continue;
                // Path-sum counts the body only: the incoming transfer
                // was charged when the previous module completed.
                const double total =
                    path_sum ? ws.src_d[i] : std::max(ws.src_v[i], resp);
                if (total < local_best.total) {
                  local_best =
                      BestTerminal{total, j, len, pu, b, ws.src_slot[i]};
                }
              }
              continue;
            }
            if (source_only && n == 0) continue;

            // Extend with the next module [j+1 .. j+len2] and budget b2.
            // The kernel runs per source over the contiguous valid-b2
            // axis, maintaining per-target minima; the merge below then
            // performs one strict-< update per destination cell. Rows of
            // the destination stage are owned exclusively: the source row
            // of a write to (pu + b2, b2, *) is recoverable as
            // pu = (pu + b2) - b2, so no two source rows ever touch the
            // same destination cell.
            const int dslot = slot_of[static_cast<std::size_t>(procs)];
            for (const Target& t : targets) {
              if (t.stage == nullptr ||
                  pu + t.next_min + t.tail_needed > cap) {
                continue;
              }
              // Valid budgets are ascending; the row's budget headroom
              // cuts them to a prefix.
              const long long limit_ll = cap - pu - t.tail_needed;
              if (limit_ll < 1) continue;
              const int limit = static_cast<int>(
                  std::min<long long>(limit_ll, cap));
              const int m = static_cast<int>(
                  std::upper_bound(t.b2s.begin(), t.b2s.end(), limit) -
                  t.b2s.begin());
              if (m == 0) continue;
              local_work += static_cast<std::uint64_t>(n) * m;

              const double* o =
                  t.o.data() + static_cast<std::size_t>(rank) * t.o_pitch;
              const int m4 = RoundUp4(m);
              for (int idx = 0; idx < m4; ++idx) {
                ws.best[idx] = kInf;
                ws.src_idx[idx] = -1.0;
              }
              for (int i = 0; i < n; ++i) {
                simd::UpdateBestOverTargets(
                    ws.src_v[i], ws.src_c[i], ws.src_d[i],
                    static_cast<double>(i), o, m, replicas_d,
                    response_cap, path_sum, ws.best.data(),
                    ws.src_idx.data());
              }
              FlatStage& ns = *t.stage;
              for (int idx = 0; idx < m; ++idx) {
                const double nv = ws.best[idx];
                if (nv == kInf) continue;
                const int b2 = t.b2s[idx];
                const int i = static_cast<int>(ws.src_idx[idx]);
                if (cell_write(ns, cell_index(pu + b2, b2), dslot, nv,
                               PackBp(len, b, ws.src_slot[i]))) {
                  ns.row_live[pu + b2].value.store(
                      1, std::memory_order_relaxed);
                }
              }
            }
          }
        }
        acc.best = local_best;
        acc.work += local_work;
        acc.pruned += local_pruned;
      };

      // Weighted contiguous partitioning: heavier rows (more budget cells,
      // more transition headroom) get fewer neighbours, and the group
      // count shrinks when the stage is too light to feed every worker —
      // fine-grained fan-out of tiny stages is where the old sweep lost
      // its 8-thread scaling. Each group maps to one worker, so per-worker
      // reductions stay reproducible for a given thread count; the merge
      // below is order-independent, so the mapping is identical for every
      // thread count regardless of the partition.
      std::vector<std::int64_t> weights(live_rows.size());
      {
        // valid-budget prefix counts for the current range.
        std::vector<std::int64_t> valid_prefix(
            static_cast<std::size_t>(cap) + 1, 0);
        for (int b = 1; b <= cap; ++b) {
          valid_prefix[b] = valid_prefix[b - 1] + (cfg_valid[cbase + b] ? 1 : 0);
        }
        for (std::size_t r = 0; r < live_rows.size(); ++r) {
          const int pu = live_rows[r];
          const std::int64_t cells = valid_prefix[pu];
          const std::int64_t span =
              is_last_stage ? 1
                            : std::max<std::int64_t>(1, cap - pu + 1);
          weights[r] = 1 + cells * span;
        }
      }
      const std::vector<std::int64_t> bounds =
          BalancedPartition(weights, num_threads, kMinWorkPerWorker);
      const int groups = static_cast<int>(bounds.size()) - 1;
      ParallelFor(groups, groups, ParallelSchedule::kStatic, 1,
                  [&](int worker, std::int64_t begin, std::int64_t end) {
                    for (std::int64_t g = begin; g < end; ++g) {
                      sweep_rows(worker, bounds[static_cast<std::size_t>(g)],
                                 bounds[static_cast<std::size_t>(g) + 1]);
                    }
                  });

      if (deadline_hit.load(std::memory_order_relaxed)) {
        aborted = true;
        break;
      }

      for (int w = 0; w < num_threads; ++w) {
        const BestTerminal& cand =
            workers[static_cast<std::size_t>(w)].value.best;
        if (cand.total == kInf) continue;
        // Candidates from this stage beat the incumbent only strictly, and
        // among themselves the smallest (pu, b, slot) wins ties — exactly
        // the state the serial sweep reaches first.
        if (cand.total < best.total ||
            (cand.total == best.total && best.j == j && best.len == len &&
             best.WorseThan(cand))) {
          best = cand;
        }
      }
    }
  }
  for (int w = 0; w < num_threads; ++w) {
    const WorkerAcc& acc = workers[static_cast<std::size_t>(w)].value;
    work += acc.work;
    pruned_cells += acc.pruned;
    worker_work_total[static_cast<std::size_t>(w)] = acc.work;
  }
  PIPEMAP_COUNTER_ADD("dp.cells_evaluated", work);
  PIPEMAP_COUNTER_ADD("dp.cells_pruned", pruned_cells);
  PIPEMAP_GAUGE_MAX("dp.table_bytes",
                    static_cast<double>(grid.allocated_bytes));

  const bool timed_out = aborted;
  if (timed_out) PIPEMAP_COUNTER_ADD("dp.deadline_expirations", 1);
  if (!timed_out && best.j < 0) {
    throw Infeasible("RunChainDp: no valid mapping found");
  }
  // On timeout, return whichever is better: the best terminal of the
  // completed stages or the heuristic/warm incumbent. The incumbent value
  // was the pruning threshold, so a surviving terminal never exceeds it.
  const bool use_terminal =
      best.j >= 0 && !(timed_out && incumbent.value < best.total);
  if (!use_terminal && incumbent.value == kInf) {
    throw ResourceLimit(
        "RunChainDp: deadline expired before any feasible incumbent was "
        "found");
  }

  DpSolution solution;
  if (use_terminal) {
    // Reconstruct module list by walking backpointers from the best
    // terminal state.
    std::vector<ModuleAssignment> reversed;
    int j = best.j, len = best.len, pu = best.pu, b = best.b;
    int slot = best.slot;
    while (true) {
      const int first = j - len + 1;
      const ModuleConfig cfg = ctx.Cfg(first, j, b);
      reversed.push_back(ModuleAssignment{first, j, cfg.replicas, cfg.procs});
      const FlatStage& s = stage_at(j, len);
      const std::uint32_t bp =
          s.bp[cell_index(pu, b) * static_cast<std::size_t>(slot_pitch) +
               slot];
      const int l_prev = BpLen(bp);
      if (l_prev == 0) break;
      const int b_prev = BpBudget(bp);
      const int slot_prev = BpPrevSlot(bp);
      j = first - 1;
      pu -= b;
      len = l_prev;
      b = b_prev;
      slot = slot_prev;
    }
    std::reverse(reversed.begin(), reversed.end());
    solution.mapping.modules = std::move(reversed);
    solution.objective_value = best.total;
  } else {
    solution.mapping = std::move(incumbent.mapping);
    solution.objective_value = incumbent.value;
  }
  solution.work = work;
  solution.pruned_cells = pruned_cells;
  solution.reused_tables = reused_tables;
  solution.seeded_incumbent = seeded_incumbent;
  solution.timed_out = timed_out;
  solution.used_sweep_prefix = used_sweep_prefix;
  solution.resweep_from = used_sweep_prefix ? rebuild_from : -1;
  solution.worker_work = std::move(worker_work_total);
  if (warm) warm->incumbent = solution.mapping;

  // Re-attach the sweep for the next incremental solve. Timed-out grids
  // are dropped: a partially swept stage is not a function of the problem
  // alone, so it must never seed a future prefix.
  if (want_capture && !timed_out) {
    DpSweepState& st = grid;
    st.k = k;
    st.cap = cap;
    st.max_len = max_len;
    st.policy = policy;
    st.rule = problem.config_rule;
    st.response_cap = response_cap;
    st.has_predicate = static_cast<bool>(options.proc_feasible);
    st.path_sum = path_sum;
    st.task_hash.resize(static_cast<std::size_t>(k));
    for (int t = 0; t < k; ++t) st.task_hash[t] = eval.TaskCostHash(t);
    st.edge_hash.resize(static_cast<std::size_t>(std::max(0, k - 1)));
    for (int e = 0; e < k - 1; ++e) st.edge_hash[e] = eval.EdgeCostHash(e);
    st.min_procs = eval.min_procs_table();
    st.replicable = eval.replicable_table();
    st.suffix_min = suffix_min;
    st.slot_procs = slot_procs;
    st.slot_pitch = slot_pitch;
    warm->sweep = std::move(sweep);
    ++warm->sweeps_captured;
    PIPEMAP_COUNTER_ADD("dp.sweeps_captured", 1);
  }
  return solution;
}

}  // namespace pipemap::detail
