#include "io/serialize.h"

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "support/error.h"
#include "workloads/fft_hist.h"
#include "workloads/synthetic.h"
#include "../temp_dir.h"
#include "../test_util.h"

namespace pipemap {
namespace {

TEST(ChainSerializationTest, PolynomialChainRoundTripsExactly) {
  const TaskChain chain = testing::SmallChain();
  const std::string text = SerializeChain(chain, 16);
  const TaskChain parsed = ParseChain(text);

  ASSERT_EQ(parsed.size(), chain.size());
  for (int t = 0; t < chain.size(); ++t) {
    EXPECT_EQ(parsed.task(t).name, chain.task(t).name);
    EXPECT_EQ(parsed.task(t).replicable, chain.task(t).replicable);
    EXPECT_DOUBLE_EQ(parsed.costs().Memory(t).fixed_bytes,
                     chain.costs().Memory(t).fixed_bytes);
    EXPECT_DOUBLE_EQ(parsed.costs().Memory(t).distributed_bytes,
                     chain.costs().Memory(t).distributed_bytes);
    for (int p = 1; p <= 32; ++p) {
      EXPECT_DOUBLE_EQ(parsed.costs().Exec(t, p), chain.costs().Exec(t, p));
    }
  }
  for (int e = 0; e < chain.size() - 1; ++e) {
    for (int p = 1; p <= 32; ++p) {
      EXPECT_DOUBLE_EQ(parsed.costs().ICom(e, p), chain.costs().ICom(e, p));
      EXPECT_DOUBLE_EQ(parsed.costs().ECom(e, p, 33 - p),
                       chain.costs().ECom(e, p, 33 - p));
    }
  }
}

TEST(ChainSerializationTest, SecondRoundTripIsIdentity) {
  const TaskChain chain = testing::SmallChain();
  const std::string once = SerializeChain(chain, 16);
  const std::string twice = SerializeChain(ParseChain(once), 16);
  EXPECT_EQ(once, twice);
}

TEST(ChainSerializationTest, CallbackCostsBecomeTabulated) {
  // FFT-Hist ground truth uses callbacks; they serialize as samples and
  // round-trip exactly at sampled scalar points.
  const Workload w = workloads::MakeFftHist(256, CommMode::kMessage);
  const std::string text = SerializeChain(w.chain, 64);
  const TaskChain parsed = ParseChain(text);
  for (int t = 0; t < w.chain.size(); ++t) {
    for (int p = 1; p <= 64; ++p) {
      EXPECT_NEAR(parsed.costs().Exec(t, p), w.chain.costs().Exec(t, p),
                  1e-12)
          << "task " << t << " p " << p;
    }
  }
  // Pair costs are grid-sampled: exact on the grid, interpolated between.
  for (int e = 0; e < 2; ++e) {
    EXPECT_NEAR(parsed.costs().ECom(e, 1, 1), w.chain.costs().ECom(e, 1, 1),
                1e-12);
    EXPECT_NEAR(parsed.costs().ECom(e, 64, 64),
                w.chain.costs().ECom(e, 64, 64), 1e-12);
    // Interpolation error between grid points stays small.
    const double truth = w.chain.costs().ECom(e, 10, 23);
    EXPECT_NEAR(parsed.costs().ECom(e, 10, 23), truth, 0.15 * truth + 1e-9);
  }
}

TEST(ChainSerializationTest, SerializedChainMapsLikeTheOriginal) {
  // The serialized-and-parsed FFT-Hist model yields (nearly) the same
  // predicted optimum as the original ground truth.
  const Workload w = workloads::MakeFftHist(256, CommMode::kMessage);
  const TaskChain parsed = ParseChain(SerializeChain(w.chain, 64));
  const Evaluator original(w.chain, 64, w.machine.node_memory_bytes);
  const Evaluator restored(parsed, 64, w.machine.node_memory_bytes);
  // Throughput of the original optimum evaluated under the restored model.
  const double t1 = original.Throughput(
      Mapping{{ModuleAssignment{0, 0, 7, 3}, ModuleAssignment{1, 2, 10, 4}}});
  const double t2 = restored.Throughput(
      Mapping{{ModuleAssignment{0, 0, 7, 3}, ModuleAssignment{1, 2, 10, 4}}});
  EXPECT_NEAR(t2, t1, 0.05 * t1);
}

TEST(ChainSerializationTest, MalformedInputThrows) {
  EXPECT_THROW(ParseChain(""), InvalidArgument);
  EXPECT_THROW(ParseChain("pipemap-chain v2\n"), InvalidArgument);
  EXPECT_THROW(ParseChain("pipemap-chain v1\ntasks 1 max_procs 4\nend\n"),
               InvalidArgument);  // missing exec
  EXPECT_THROW(
      ParseChain("pipemap-chain v1\ntasks 1 max_procs 4\nbogus line\nend\n"),
      InvalidArgument);
}

TEST(ChainSerializationTest, WhitespaceInTaskNameRejected) {
  ChainCostModel costs;
  costs.AddTask(std::make_unique<PolyScalarCost>(1, 0, 0), MemorySpec{});
  const TaskChain chain({Task{"two words"}}, std::move(costs));
  EXPECT_THROW(SerializeChain(chain, 4), InvalidArgument);
}

// Randomized sweep: synthetic chains of every shape round-trip exactly
// (their costs are Section-5 polynomials, persisted losslessly).
class SerializeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SerializeSweep, RandomChainRoundTripsExactly) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 1 + GetParam() % 6;
  spec.machine_procs = 8 + 4 * (GetParam() % 5);
  spec.comm_comp_ratio = 0.1 * (GetParam() % 9);
  spec.replicable_fraction = 0.5;
  spec.memory_tightness = 0.2;
  const Workload w = workloads::MakeSynthetic(spec, 42000 + GetParam());
  const TaskChain parsed =
      ParseChain(SerializeChain(w.chain, spec.machine_procs));
  ASSERT_EQ(parsed.size(), w.chain.size());
  for (int t = 0; t < w.chain.size(); ++t) {
    EXPECT_EQ(parsed.task(t).replicable, w.chain.task(t).replicable);
    for (int p : {1, 2, 5, 11}) {
      EXPECT_DOUBLE_EQ(parsed.costs().Exec(t, p), w.chain.costs().Exec(t, p));
    }
  }
  for (int e = 0; e < w.chain.size() - 1; ++e) {
    EXPECT_DOUBLE_EQ(parsed.costs().ICom(e, 7), w.chain.costs().ICom(e, 7));
    EXPECT_DOUBLE_EQ(parsed.costs().ECom(e, 3, 9),
                     w.chain.costs().ECom(e, 3, 9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeSweep, ::testing::Range(0, 18));

TEST(MappingSerializationTest, RoundTrip) {
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 7, 3});
  m.modules.push_back(ModuleAssignment{1, 2, 10, 4});
  EXPECT_EQ(ParseMapping(SerializeMapping(m)), m);
}

TEST(MappingSerializationTest, EmptyMappingRoundTrips) {
  const Mapping m;
  EXPECT_EQ(ParseMapping(SerializeMapping(m)), m);
}

TEST(MappingSerializationTest, MalformedInputThrows) {
  EXPECT_THROW(ParseMapping("nope"), InvalidArgument);
  EXPECT_THROW(ParseMapping("pipemap-mapping v1\nmodules 2\n"
                            "module 0 0 1 1\nend\n"),
               InvalidArgument);  // count mismatch
}

TEST(MapperOptionsSerializationTest, EveryFingerprintedFieldRoundTrips) {
  // Exercise the non-default value of every fingerprinted field at once:
  // a drift between SerializeMapperOptions and ParseMapperOptions on any
  // of them fails here. (A mirror-struct static_assert in serialize.cpp
  // additionally breaks the build when MapperOptions gains a field that
  // nobody classified as fingerprinted-or-excluded.)
  for (const ReplicationPolicy policy :
       {ReplicationPolicy::kNone, ReplicationPolicy::kMaximal,
        ReplicationPolicy::kSearch}) {
    MapperOptions options;
    options.replication = policy;
    options.allow_clustering = false;
    options.max_table_bytes = 123456789;
    const MapperOptions parsed =
        ParseMapperOptions(SerializeMapperOptions(options));
    EXPECT_EQ(parsed.replication, options.replication);
    EXPECT_EQ(parsed.allow_clustering, options.allow_clustering);
    EXPECT_EQ(parsed.max_table_bytes, options.max_table_bytes);
    EXPECT_FALSE(parsed.proc_feasible);
  }
}

TEST(MapperOptionsSerializationTest, SerializationIsCanonical) {
  // Execution-only knobs (threads, warm-start state) must not
  // leak into the serialized form: it is the engine cache key, and those
  // knobs cannot change the returned mapping.
  MapperOptions a;
  MapperOptions b;
  b.num_threads = 7;
  b.warm = std::make_shared<WarmStartState>();
  EXPECT_EQ(SerializeMapperOptions(a), SerializeMapperOptions(b));
}

TEST(MapperOptionsSerializationTest, PredicateIsPresenceOnly) {
  MapperOptions options;
  options.proc_feasible = [](int p) { return p % 2 == 0; };
  const std::string text = SerializeMapperOptions(options);
  EXPECT_NE(text.find("has_predicate 1"), std::string::npos);
  // The callback cannot be reconstructed; parsing must refuse rather than
  // silently drop the constraint.
  EXPECT_THROW(ParseMapperOptions(text), InvalidArgument);
}

TEST(MapperOptionsSerializationTest, MalformedInputThrows) {
  EXPECT_THROW(ParseMapperOptions("nope"), InvalidArgument);
  EXPECT_THROW(ParseMapperOptions("pipemap-mapper-options v1\n"
                                  "replication sideways\nend\n"),
               InvalidArgument);
  EXPECT_THROW(ParseMapperOptions("pipemap-mapper-options v1\n"
                                  "unknown_key 3\nend\n"),
               InvalidArgument);
  EXPECT_THROW(ParseMapperOptions("pipemap-mapper-options v1\n"
                                  "replication maximal\n"),
               InvalidArgument);  // missing end
}

TEST(MachineSerializationTest, RoundTrip) {
  MachineConfig m = MachineConfig::IWarp64(CommMode::kSystolic);
  m.node_memory_bytes = 123456.789;
  m.pathways_per_link = 7;
  const MachineConfig parsed = ParseMachine(SerializeMachine(m));
  EXPECT_EQ(parsed.name, m.name);
  EXPECT_EQ(parsed.grid_rows, m.grid_rows);
  EXPECT_EQ(parsed.grid_cols, m.grid_cols);
  EXPECT_EQ(parsed.comm_mode, m.comm_mode);
  EXPECT_DOUBLE_EQ(parsed.node_memory_bytes, m.node_memory_bytes);
  EXPECT_DOUBLE_EQ(parsed.msg_overhead_s, m.msg_overhead_s);
  EXPECT_EQ(parsed.pathways_per_link, m.pathways_per_link);
}

TEST(MachineSerializationTest, UnknownKeyThrows) {
  EXPECT_THROW(ParseMachine("pipemap-machine v1\nwarp_factor 9\nend\n"),
               InvalidArgument);
}

TEST(FileIoTest, WriteAndReadBack) {
  const testing::ScopedTempDir scratch;
  const std::string path = scratch.File("pipemap_io_test.txt");
  WriteTextFile(path, "hello\nworld\n");
  EXPECT_EQ(ReadTextFile(path), "hello\nworld\n");
}

TEST(FileIoTest, MissingFileThrows) {
  EXPECT_THROW(ReadTextFile("/nonexistent/path/file.txt"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: take a valid serialized workload and corrupt one
// field at a time — NaN costs, negative/zero resources, truncations. Every
// corruption must be rejected at the parse boundary with InvalidArgument;
// none may crash, hang, or leak a poisoned value into the solvers.

/// Replaces the whitespace-delimited token that follows the first
/// occurrence of `key` with `to`, so corpus entries name fields rather
/// than hard-coding the serialized values.
std::string CorruptValue(std::string text, const std::string& key,
                         const std::string& to) {
  const auto pos = text.find(key + " ");
  EXPECT_NE(pos, std::string::npos) << "corpus key missing: " << key;
  if (pos == std::string::npos) return text;
  const auto value_begin = pos + key.size() + 1;
  const auto value_end = text.find_first_of(" \n", value_begin);
  text.replace(value_begin, value_end - value_begin, to);
  return text;
}

TEST(MalformedCorpusTest, CorruptedChainsAreRejected) {
  const Workload w = workloads::MakeFftHist(64, CommMode::kMessage);
  const std::string good = SerializeChain(w.chain, 16);
  ASSERT_NO_THROW(ParseChain(good));

  EXPECT_THROW(ParseChain("pipemap-chain v9\n" + good.substr(good.find('\n'))),
               InvalidArgument);  // future version
  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"tasks", "-3"},          // negative count
      {"tasks", "999"},         // count > body: exec tables missing
      {"max_procs", "0"},       // no processors
      {"replicable", "maybe"},  // non-numeric field
      {"mem_fixed", "nan"},     // poisoned memory cost
      {"mem_fixed", "inf"},
      {"mem_dist", "-1"},       // negative memory
      {"exec", "9"},            // table index out of range
  };
  for (const auto& [key, to] : corpus) {
    EXPECT_THROW(ParseChain(CorruptValue(good, key, to)), InvalidArgument)
        << "accepted corruption: " << key << " -> " << to;
  }
}

TEST(MalformedCorpusTest, CorruptedMachinesAreRejected) {
  const Workload w = workloads::MakeFftHist(64, CommMode::kMessage);
  const std::string good = SerializeMachine(w.machine);
  ASSERT_NO_THROW(ParseMachine(good));

  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"grid", "0"},                     // empty grid
      {"node_memory_bytes", "nan"},      // poisoned capacity
      {"node_memory_bytes", "-5"},       // negative capacity
      {"node_flops", "0"},               // division by zero downstream
      {"node_bandwidth", "inf"},         // non-finite rate
      {"msg_overhead_s", "-1"},          // negative overhead
      {"comm_mode", "telepathy"},        // unknown enum
      {"pathways_per_link", "0"},        // no routes
  };
  for (const auto& [key, to] : corpus) {
    EXPECT_THROW(ParseMachine(CorruptValue(good, key, to)), InvalidArgument)
        << "accepted corruption: " << key << " -> " << to;
  }
  // A line missing its second field is rejected, not silently defaulted.
  const std::string short_grid = CorruptValue(good, "grid", "8\ngrid_pad");
  EXPECT_THROW(ParseMachine(short_grid), InvalidArgument);
}

TEST(MalformedCorpusTest, CorruptedMappingsAreRejected) {
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 1, 2, 3});
  const std::string good = SerializeMapping(m);
  ASSERT_NO_THROW(ParseMapping(good));

  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"modules 1", "modules 2"},              // count > body
      {"modules 1", "modules x"},              // non-numeric count
      {"module 0 1 2 3", "module 0 1 2"},      // missing field
      {"module 0 1 2 3", "module 0 1 -2 3"},   // negative replicas
      {"module 0 1 2 3\n", ""},                // body shorter than count
  };
  for (const auto& [from, to] : corpus) {
    std::string bad = good;
    const auto pos = bad.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    bad.replace(pos, from.size(), to);
    EXPECT_THROW(ParseMapping(bad), InvalidArgument)
        << "accepted corruption: " << from << " -> " << to;
  }
}

}  // namespace
}  // namespace pipemap
