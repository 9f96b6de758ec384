// Shared plumbing for the benchmark harness: the paper's workload
// configurations and the standard measurement settings used to reproduce
// its tables.
#pragma once

#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/pipeline_sim.h"
#include "support/json_writer.h"
#include "workloads/fft_hist.h"
#include "workloads/radar.h"
#include "workloads/stereo.h"
#include "workloads/workload.h"

namespace pipemap::bench {

struct NamedWorkload {
  std::string label;
  std::string size;
  Workload workload;
};

/// The four FFT-Hist configurations of Table 1.
inline std::vector<NamedWorkload> FftHistConfigs() {
  return {
      {"FFT-Hist", "256x256",
       workloads::MakeFftHist(256, CommMode::kMessage)},
      {"FFT-Hist", "256x256",
       workloads::MakeFftHist(256, CommMode::kSystolic)},
      {"FFT-Hist", "512x512",
       workloads::MakeFftHist(512, CommMode::kMessage)},
      {"FFT-Hist", "512x512",
       workloads::MakeFftHist(512, CommMode::kSystolic)},
  };
}

/// The six application rows of Table 2.
inline std::vector<NamedWorkload> Table2Configs() {
  std::vector<NamedWorkload> configs = FftHistConfigs();
  configs.push_back(
      {"Radar", "512x10x4", workloads::MakeRadar(CommMode::kSystolic)});
  configs.push_back(
      {"Stereo", "256x100", workloads::MakeStereo(CommMode::kSystolic)});
  return configs;
}

/// Writes a "host" object naming what the numbers were measured on: the
/// CPU model and the hardware threads this process may use, the compiler
/// and the build type. Timings are properties of the host; a BENCH file
/// without its host cannot be compared with another.
inline void WriteHostJson(JsonWriter& w) {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  w.Key("host").BeginObject();
  w.Key("cpu_model").String(cpu_model);
  w.Key("hardware_threads").UInt(std::thread::hardware_concurrency());
#if defined(__clang__)
  w.Key("compiler").String("clang " __clang_version__);
#else
  w.Key("compiler").String("gcc " __VERSION__);
#endif
  w.Key("build_type").String(PIPEMAP_BUILD_TYPE);
  w.EndObject();
}

/// Standard "measured" settings: a stream long enough for steady state,
/// with the systematic-bias / jitter / contention noise that stands in for
/// the paper's second-order effects.
inline SimOptions MeasurementSettings(std::uint64_t seed = 20260706) {
  SimOptions options;
  options.num_datasets = 400;
  options.warmup = 150;
  options.noise.systematic_stddev = 0.03;
  options.noise.jitter_stddev = 0.01;
  options.noise.contention_coeff = 0.05;
  options.noise.seed = seed;
  return options;
}

}  // namespace pipemap::bench
