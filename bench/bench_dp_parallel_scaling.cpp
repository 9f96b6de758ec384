// Parallel-scaling and incremental re-solve regression harness for the DP
// mapping engine.
//
// Part 1 runs the throughput DP on a P >= 128, k >= 16 synthetic chain at
// the full 1..8 thread ladder, verifies every run returns the identical
// mapping and objective (the engine's determinism contract), and records
// per-worker work shares so partition imbalance is tracked alongside wall
// time. The ladder is NOT clamped to the visible core count: determinism
// must hold oversubscribed too, so runs beyond the available concurrency
// execute and are flagged `oversubscribed` in the JSON (their wall times
// measure scheduling noise, not scaling, and downstream tooling skips
// them). `hardware_threads` reports ThreadPool::AvailableConcurrency() —
// the affinity-aware count the mappers actually use, overridable with
// PIPEMAP_HARDWARE_THREADS — not the raw cpuinfo count.
//
// Part 2 measures the incremental re-solve path: solve once with sweep
// capture on, perturb the last edge's communication costs, and re-solve
// warm (suffix-only re-sweep) vs cold. The warm result must be
// byte-identical to the cold one — mapping, throughput, and provenance are
// all compared — and the speedup is recorded.
//
// Exit status is nonzero when any thread count changes the mapping or the
// warm re-solve diverges from cold — never when a speedup is small,
// because measured speedup is a property of the host; the JSON carries
// enough context (`hardware_threads`, `oversubscribed`) for tooling to
// judge the numbers.
//
// Usage: bench_dp_parallel_scaling [output.json] [P] [k]
//        defaults: BENCH_dp_parallel.json 128 16
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/dp_mapper.h"
#include "core/evaluator.h"
#include "core/warm_start.h"
#include "costmodel/cost_function.h"
#include "support/json_writer.h"
#include "support/metrics.h"
#include "support/thread_pool.h"
#include "workloads/synthetic.h"

namespace pipemap::bench {
namespace {

struct ThreadSample {
  int threads = 0;
  bool oversubscribed = false;
  double wall_s = 0.0;
  double speedup = 1.0;
  std::uint64_t work = 0;
  std::uint64_t pruned_cells = 0;
  double throughput = 0.0;
  double work_imbalance = 1.0;
  std::vector<std::uint64_t> worker_work;
  std::string mapping;
};

struct IncrementalSample {
  double cold_wall_s = 0.0;
  double warm_wall_s = 0.0;
  double speedup = 1.0;
  bool used_sweep_prefix = false;
  int resweep_from = -1;
  bool identical = false;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// max(worker share) / mean(worker share): 1.0 is a perfect partition.
double WorkImbalance(const std::vector<std::uint64_t>& shares) {
  if (shares.empty()) return 1.0;
  std::uint64_t max = 0;
  std::uint64_t total = 0;
  for (const std::uint64_t w : shares) {
    max = std::max(max, w);
    total += w;
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shares.size());
  return static_cast<double>(max) / mean;
}

/// The chain with the last edge's communication costs scaled by `factor`:
/// a suffix-only cost perturbation, so an incremental re-solve may reuse
/// every stage except the final one.
TaskChain PerturbLastEdge(const TaskChain& chain, double factor) {
  const int edge = chain.size() - 2;
  ChainCostModel costs = chain.costs();
  std::shared_ptr<ScalarCost> icom(costs.IComFn(edge).Clone());
  std::shared_ptr<PairCost> ecom(costs.EComFn(edge).Clone());
  costs.SetEdge(
      edge,
      std::make_unique<CallbackScalarCost>(
          [icom, factor](int p) { return icom->Eval(p) * factor; }),
      std::make_unique<CallbackPairCost>([ecom, factor](int s, int r) {
        return ecom->Eval(s, r) * factor;
      }));
  return chain.WithCosts(std::move(costs));
}

int Run(const std::string& out_path, int procs, int num_tasks) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = num_tasks;
  spec.machine_procs = procs;
  spec.comm_comp_ratio = 0.35;
  spec.memory_tightness = 0.2;
  spec.replicable_fraction = 0.8;
  const Workload w = workloads::MakeSynthetic(spec, 20260805);

  const int avail = ThreadPool::AvailableConcurrency();
  // A PIPEMAP_HARDWARE_THREADS override can claim more workers than the
  // affinity mask grants; oversubscription is judged against the smaller
  // of the two so the flag stays honest either way.
  const int physical = std::min(avail, ThreadPool::HardwareConcurrency());
  std::printf("DP parallel scaling: P=%d, k=%d (host has %d available"
              " thread%s, %d physical)\n\n",
              procs, num_tasks, avail, avail == 1 ? "" : "s", physical);

  // The big table pays for itself here; clustering is off so the stage
  // grid stays k blocks of (P+1)^3 states. Warm the evaluator once (its
  // tabulation is timed separately from the DP proper).
  const Evaluator eval(w.chain, procs, w.machine.node_memory_bytes,
                       /*num_threads=*/0);

  MetricsRegistry::Global().Reset();

  std::vector<ThreadSample> samples;
  {
    // The ladder's solves run observed; the switch is restored after.
    const ScopedMetricsEnable metrics_on(true);
    for (int threads = 1; threads <= 8; threads *= 2) {
      MapperOptions options;
      options.allow_clustering = false;
      options.num_threads = threads;
      const DpMapper mapper(options);
      const double start = Now();
      const MapResult r = mapper.Map(eval, procs);
      const double wall = Now() - start;
      ThreadSample s;
      s.threads = threads;
      s.oversubscribed = threads > physical;
      s.wall_s = wall;
      s.work = r.work;
      s.pruned_cells = r.pruned_cells;
      s.throughput = r.throughput;
      s.worker_work = r.worker_work;
      s.work_imbalance = WorkImbalance(r.worker_work);
      s.mapping = r.mapping.ToString(w.chain);
      samples.push_back(std::move(s));
      std::printf("  %d thread%s: %8.3f s   work=%llu  pruned=%llu"
                  "  imbalance=%.3f%s\n",
                  threads, threads == 1 ? " " : "s", wall,
                  static_cast<unsigned long long>(r.work),
                  static_cast<unsigned long long>(r.pruned_cells),
                  samples.back().work_imbalance,
                  samples.back().oversubscribed ? "  (oversubscribed)" : "");
    }
  }

  bool identical = true;
  for (ThreadSample& s : samples) {
    s.speedup = samples.front().wall_s / s.wall_s;
    identical = identical && s.mapping == samples.front().mapping &&
                s.throughput == samples.front().throughput;
  }
  std::printf("\n  speedup at %d threads: %.2fx\n", samples.back().threads,
              samples.back().speedup);
  std::printf("  identical mappings across thread counts: %s\n",
              identical ? "yes" : "NO — determinism contract violated");

  // Incremental re-solve: capture the sweep on the base chain, perturb the
  // last edge, and compare a warm (suffix-only) re-solve against a cold
  // one. Single-threaded on both sides so the ratio isolates the algorithm.
  IncrementalSample inc;
  {
    MapperOptions options;
    options.allow_clustering = false;
    options.num_threads = 1;
    options.incremental = true;
    options.warm = std::make_shared<WarmStartState>();
    const DpMapper warm_mapper(options);
    warm_mapper.Map(eval, procs);  // capture pass

    const TaskChain perturbed = PerturbLastEdge(w.chain, 1.05);
    const Evaluator peval(perturbed, procs, w.machine.node_memory_bytes,
                          /*num_threads=*/0);

    MapperOptions cold_options;
    cold_options.allow_clustering = false;
    cold_options.num_threads = 1;
    const DpMapper cold_mapper(cold_options);
    const double cold_start = Now();
    const MapResult cold = cold_mapper.Map(peval, procs);
    inc.cold_wall_s = Now() - cold_start;

    const double warm_start = Now();
    const MapResult warm = warm_mapper.Map(peval, procs);
    inc.warm_wall_s = Now() - warm_start;

    inc.speedup = inc.warm_wall_s > 0.0 ? inc.cold_wall_s / inc.warm_wall_s
                                        : 0.0;
    inc.used_sweep_prefix = warm.used_sweep_prefix;
    inc.resweep_from = warm.resweep_from;
    inc.identical =
        warm.mapping.ToString(perturbed) == cold.mapping.ToString(perturbed) &&
        warm.throughput == cold.throughput;
    std::printf("\n  incremental re-solve (last-edge perturbation):\n");
    std::printf("    cold %.3f s,  warm %.3f s  ->  %.1fx"
                "  (prefix reused: %s, re-swept from stage %d)\n",
                inc.cold_wall_s, inc.warm_wall_s, inc.speedup,
                inc.used_sweep_prefix ? "yes" : "NO", inc.resweep_from);
    std::printf("    warm identical to cold: %s\n",
                inc.identical ? "yes" : "NO — incremental contract violated");
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  JsonWriter jw;
  jw.BeginObject();
  jw.Key("bench").String("bench_dp_parallel_scaling");
  jw.Key("procs").Int(procs);
  jw.Key("num_tasks").Int(num_tasks);
  jw.Key("hardware_threads").Int(avail);
  jw.Key("physical_threads").Int(physical);
  jw.Key("identical_mappings").Bool(identical);
  jw.Key("mapping").String(samples.front().mapping);
  jw.Key("runs").BeginArray();
  for (const ThreadSample& s : samples) {
    jw.BeginObject();
    jw.Key("threads").Int(s.threads);
    jw.Key("oversubscribed").Bool(s.oversubscribed);
    jw.Key("wall_s").Double(s.wall_s);
    jw.Key("speedup").Double(s.speedup);
    jw.Key("work").UInt(s.work);
    jw.Key("pruned_cells").UInt(s.pruned_cells);
    jw.Key("throughput").Double(s.throughput);
    jw.Key("work_imbalance").Double(s.work_imbalance);
    jw.Key("worker_work").BeginArray();
    for (const std::uint64_t share : s.worker_work) jw.UInt(share);
    jw.EndArray();
    jw.EndObject();
  }
  jw.EndArray();
  jw.Key("incremental").BeginObject();
  jw.Key("cold_wall_s").Double(inc.cold_wall_s);
  jw.Key("warm_wall_s").Double(inc.warm_wall_s);
  jw.Key("speedup").Double(inc.speedup);
  jw.Key("used_sweep_prefix").Bool(inc.used_sweep_prefix);
  jw.Key("resweep_from").Int(inc.resweep_from);
  jw.Key("identical_to_cold").Bool(inc.identical);
  jw.EndObject();
  jw.Key("metrics").Raw(MetricsRegistry::Global().Snapshot().ToJson());
  jw.EndObject();
  out << jw.str();
  std::printf("  wrote %s\n", out_path.c_str());
  return identical && inc.identical ? 0 : 2;
}

}  // namespace
}  // namespace pipemap::bench

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_dp_parallel.json";
  const int procs = argc > 2 ? std::atoi(argv[2]) : 128;
  const int num_tasks = argc > 3 ? std::atoi(argv[3]) : 16;
  return pipemap::bench::Run(out, procs, num_tasks);
}
