// Fault-recovery harness (writes BENCH_fault_recovery.json).
//
// Measures what a processor crash costs and how fast the RepairEngine
// restores service, on the Table-2 applications. For each workload:
//
//   1. Map the healthy problem, then crash one instance of the first
//      module (the paper's pipelines put a replicated stage there) and of
//      the widest module.
//   2. Repair under each policy — drop-replica (instant, degraded),
//      full remap (re-solve on the survivors), throughput floor
//      (drop-replica if good enough, else escalate) — and record the
//      recovery latency and the throughput retention.
//   3. Time the full-remap repair twice: COLD through a fresh engine
//      (empty solution cache, no warm tables) and WARM through the engine
//      that already solved the healthy problem, so the JSON tracks how
//      much the reuse layers buy during recovery, when latency actually
//      matters.
//
// Exit status is nonzero when a repaired mapping fails validation or
// overruns the surviving processors — never on small speedups, which are
// host-dependent; the JSON records the wall times so the trajectory is
// tracked PR over PR.
//
// Usage: bench_fault_recovery [output.json] [reps]
//        defaults: BENCH_fault_recovery.json 3
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "engine/mapping_engine.h"
#include "fault/repair.h"
#include "support/error.h"
#include "support/json_writer.h"
#include "bench_util.h"

namespace pipemap::bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PolicySample {
  std::string policy;
  double recovery_s = 0.0;
  double retention = 0.0;
  int attempts = 0;
  bool degraded = false;
  bool valid = true;
};

struct ScenarioSample {
  std::string label;
  std::string size;
  std::string comm;
  int failed_module = 0;
  int lost_procs = 0;
  std::vector<PolicySample> policies;
  double cold_remap_s = 0.0;
  double warm_remap_s = 0.0;
  double cold_retention = 0.0;
  double warm_retention = 0.0;
};

/// The widest module: losing an instance there is the expensive crash.
int WidestModule(const Mapping& mapping) {
  int widest = 0;
  for (int m = 1; m < mapping.num_modules(); ++m) {
    if (mapping.modules[m].replicas > mapping.modules[widest].replicas) {
      widest = m;
    }
  }
  return widest;
}

int Run(const std::string& out_path, int reps) {
  std::printf("Fault recovery: crash one instance, repair, measure"
              " (best of %d)\n\n", reps);

  std::vector<ScenarioSample> scenarios;
  bool all_valid = true;
  for (const NamedWorkload& c : Table2Configs()) {
    MappingEngine warm_engine;
    MapRequest healthy;
    healthy.chain = &c.workload.chain;
    healthy.machine = c.workload.machine;
    const Mapping mapped = warm_engine.Map(healthy).mapping;

    std::vector<int> failed_modules = {0};
    if (WidestModule(mapped) != 0) failed_modules.push_back(WidestModule(mapped));
    for (const int failed_module : failed_modules) {
      ScenarioSample s;
      s.label = c.label;
      s.size = c.size;
      s.comm = ToString(c.workload.machine.comm_mode);
      s.failed_module = failed_module;
      s.lost_procs = mapped.modules[failed_module].procs_per_instance;

      RepairRequest base;
      base.chain = &c.workload.chain;
      base.machine = c.workload.machine;
      base.failed_mapping = mapped;
      base.failed_module = failed_module;
      base.failed_instances = 1;

      for (const RepairPolicy policy :
           {RepairPolicy::kDropReplica, RepairPolicy::kFullRemap,
            RepairPolicy::kThroughputFloor}) {
        RepairRequest request = base;
        request.policy = policy;
        PolicySample p;
        p.policy = ToString(policy);
        p.recovery_s = std::numeric_limits<double>::infinity();
        try {
          for (int rep = 0; rep < reps; ++rep) {
            const RepairOutcome outcome = RepairEngine(&warm_engine).Repair(request);
            p.recovery_s = std::min(p.recovery_s, outcome.repair_seconds);
            p.retention = outcome.throughput_retention;
            p.attempts = outcome.attempts;
            p.degraded = outcome.degraded;
            p.valid = outcome.mapping.IsValidFor(c.workload.chain.size());
          }
        } catch (const Error& e) {
          std::fprintf(stderr, "%s %s policy %s: %s\n", s.label.c_str(),
                       s.size.c_str(), p.policy.c_str(), e.what());
          p.valid = false;
        }
        all_valid = all_valid && p.valid;
        s.policies.push_back(std::move(p));
      }

      // Cold vs warm full remap: a fresh engine per repair against the
      // engine that already holds the healthy solve's cache and tables.
      RepairRequest remap = base;
      remap.policy = RepairPolicy::kFullRemap;
      s.cold_remap_s = std::numeric_limits<double>::infinity();
      s.warm_remap_s = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < reps; ++rep) {
        MappingEngine cold_engine;
        const double cold_start = Now();
        const RepairOutcome cold = RepairEngine(&cold_engine).Repair(remap);
        s.cold_remap_s = std::min(s.cold_remap_s, Now() - cold_start);
        s.cold_retention = cold.throughput_retention;

        const double warm_start = Now();
        const RepairOutcome warm = RepairEngine(&warm_engine).Repair(remap);
        s.warm_remap_s = std::min(s.warm_remap_s, Now() - warm_start);
        s.warm_retention = warm.throughput_retention;
      }

      std::printf("%-10s %-9s %-9s m%d (-%d procs)  drop %6.3f ms (ret"
                  " %.3f)  remap %6.3f ms (ret %.3f)  cold %7.2f ms /"
                  " warm %7.2f ms (%.1fx)\n",
                  s.label.c_str(), s.size.c_str(), s.comm.c_str(),
                  s.failed_module, s.lost_procs,
                  1e3 * s.policies[0].recovery_s, s.policies[0].retention,
                  1e3 * s.policies[1].recovery_s, s.policies[1].retention,
                  1e3 * s.cold_remap_s, 1e3 * s.warm_remap_s,
                  s.cold_remap_s / s.warm_remap_s);
      scenarios.push_back(std::move(s));
    }
  }

  std::printf("\nall repaired mappings valid on the survivors: %s\n",
              all_valid ? "yes" : "NO");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("bench_fault_recovery");
  WriteHostJson(w);
  w.Key("reps").Int(reps);
  w.Key("all_valid").Bool(all_valid);
  w.Key("scenarios").BeginArray();
  for (const ScenarioSample& s : scenarios) {
    w.BeginObject();
    w.Key("program").String(s.label);
    w.Key("size").String(s.size);
    w.Key("comm").String(s.comm);
    w.Key("failed_module").Int(s.failed_module);
    w.Key("lost_procs").Int(s.lost_procs);
    w.Key("policies").BeginArray();
    for (const PolicySample& p : s.policies) {
      w.BeginObject();
      w.Key("policy").String(p.policy);
      w.Key("recovery_s").Double(p.recovery_s);
      w.Key("throughput_retention").Double(p.retention);
      w.Key("attempts").Int(p.attempts);
      w.Key("degraded").Bool(p.degraded);
      w.Key("valid").Bool(p.valid);
      w.EndObject();
    }
    w.EndArray();
    w.Key("full_remap").BeginObject();
    w.Key("cold_s").Double(s.cold_remap_s);
    w.Key("warm_s").Double(s.warm_remap_s);
    w.Key("warm_speedup").Double(s.cold_remap_s / s.warm_remap_s);
    w.Key("cold_retention").Double(s.cold_retention);
    w.Key("warm_retention").Double(s.warm_retention);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << w.str();
  std::printf("wrote %s\n", out_path.c_str());
  return all_valid ? 0 : 2;
}

}  // namespace
}  // namespace pipemap::bench

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_fault_recovery.json";
  const int reps = argc > 2 ? std::atoi(argv[2]) : 3;
  return pipemap::bench::Run(out, reps);
}
