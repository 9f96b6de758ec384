#include "io/serialize.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

#include "costmodel/piecewise.h"
#include "costmodel/poly.h"
#include "support/error.h"

namespace pipemap {
namespace {

/// Formats a double with enough digits to round-trip exactly.
std::string Num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// Upper bound on any parsed sample/element count. Parsers reserve() what the
/// count line promises, so an unvalidated count is an allocation bomb; no
/// legitimate workload comes close to this.
constexpr std::size_t kMaxParsedSamples = 1u << 20;

/// Boundary validation (fault containment): malformed inputs must die here
/// with the offending line in the message, not surface later as NaN
/// throughputs or UB inside the solvers.
void CheckFinite(double v, const std::string& what,
                 const std::string& context) {
  PIPEMAP_CHECK(std::isfinite(v),
                "parse: non-finite " + what + " in " + context);
}

/// Grid of processor counts used when sampling a callback pair cost.
/// Dense for small counts, where the 1/p structure of communication costs
/// is steep and linear interpolation would otherwise be poor, then strided
/// up to max_procs.
std::vector<int> SampleAxis(int max_procs) {
  std::vector<int> axis;
  const int dense_until = std::min(16, max_procs);
  for (int p = 1; p <= dense_until; ++p) axis.push_back(p);
  const int stride = std::max(1, (max_procs - dense_until) / 8);
  for (int p = dense_until + stride; p <= max_procs; p += stride) {
    axis.push_back(p);
  }
  if (axis.back() != max_procs) axis.push_back(max_procs);
  return axis;
}

void WriteScalar(std::ostream& os, const std::string& prefix,
                 const ScalarCost& fn, int max_procs) {
  if (const auto* poly = dynamic_cast<const PolyScalarCost*>(&fn)) {
    os << prefix << " poly " << Num(poly->coeffs()[0]) << " "
       << Num(poly->coeffs()[1]) << " " << Num(poly->coeffs()[2]) << "\n";
    return;
  }
  if (const auto* tab = dynamic_cast<const TabulatedScalarCost*>(&fn)) {
    os << prefix << " tab " << tab->samples().size();
    for (const auto& [p, t] : tab->samples()) {
      os << " " << p << " " << Num(t);
    }
    os << "\n";
    return;
  }
  // Arbitrary function: sample every processor count.
  os << prefix << " tab " << max_procs;
  for (int p = 1; p <= max_procs; ++p) {
    os << " " << p << " " << Num(fn.Eval(p));
  }
  os << "\n";
}

void WritePair(std::ostream& os, const std::string& prefix,
               const PairCost& fn, int max_procs) {
  if (const auto* poly = dynamic_cast<const PolyPairCost*>(&fn)) {
    os << prefix << " poly";
    for (double c : poly->coeffs()) os << " " << Num(c);
    os << "\n";
    return;
  }
  // Tabulated or arbitrary: sample the grid. (TabulatedPairCost does not
  // expose its grid; re-sampling it reproduces its values on the grid.)
  const std::vector<int> axis = SampleAxis(max_procs);
  os << prefix << " tab " << axis.size() * axis.size();
  for (int ps : axis) {
    for (int pr : axis) {
      os << " " << ps << " " << pr << " " << Num(fn.Eval(ps, pr));
    }
  }
  os << "\n";
}

std::unique_ptr<ScalarCost> ReadScalar(std::istringstream& in,
                                       const std::string& context) {
  std::string kind;
  PIPEMAP_CHECK(static_cast<bool>(in >> kind),
                "chain parse: missing scalar kind in " + context);
  if (kind == "poly") {
    double c1 = 0, c2 = 0, c3 = 0;
    PIPEMAP_CHECK(static_cast<bool>(in >> c1 >> c2 >> c3),
                  "chain parse: bad poly coefficients in " + context);
    CheckFinite(c1, "poly coefficient", context);
    CheckFinite(c2, "poly coefficient", context);
    CheckFinite(c3, "poly coefficient", context);
    return std::make_unique<PolyScalarCost>(c1, c2, c3);
  }
  if (kind == "tab") {
    std::size_t n = 0;
    PIPEMAP_CHECK(static_cast<bool>(in >> n) && n >= 1 &&
                      n <= kMaxParsedSamples,
                  "chain parse: bad sample count in " + context);
    std::vector<std::pair<int, double>> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      int p = 0;
      double t = 0;
      PIPEMAP_CHECK(static_cast<bool>(in >> p >> t) && p >= 1,
                    "chain parse: bad sample in " + context);
      CheckFinite(t, "sample cost", context);
      samples.emplace_back(p, t);
    }
    return std::make_unique<TabulatedScalarCost>(std::move(samples));
  }
  throw InvalidArgument("chain parse: unknown scalar kind '" + kind +
                        "' in " + context);
}

std::unique_ptr<PairCost> ReadPair(std::istringstream& in,
                                   const std::string& context) {
  std::string kind;
  PIPEMAP_CHECK(static_cast<bool>(in >> kind),
                "chain parse: missing pair kind in " + context);
  if (kind == "poly") {
    std::array<double, 5> c{};
    for (double& v : c) {
      PIPEMAP_CHECK(static_cast<bool>(in >> v),
                    "chain parse: bad poly coefficients in " + context);
      CheckFinite(v, "poly coefficient", context);
    }
    return std::make_unique<PolyPairCost>(c);
  }
  if (kind == "tab") {
    std::size_t n = 0;
    PIPEMAP_CHECK(static_cast<bool>(in >> n) && n >= 1 &&
                      n <= kMaxParsedSamples,
                  "chain parse: bad sample count in " + context);
    std::vector<TabulatedPairCost::Sample> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      TabulatedPairCost::Sample s{};
      PIPEMAP_CHECK(
          static_cast<bool>(in >> s.sender_procs >> s.receiver_procs >>
                            s.seconds) &&
              s.sender_procs >= 1 && s.receiver_procs >= 1,
          "chain parse: bad sample in " + context);
      CheckFinite(s.seconds, "sample cost", context);
      samples.push_back(s);
    }
    return std::make_unique<TabulatedPairCost>(std::move(samples));
  }
  throw InvalidArgument("chain parse: unknown pair kind '" + kind + "' in " +
                        context);
}

/// Reads the next non-empty, non-comment line.
bool NextLine(std::istringstream& in, std::string& line) {
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') return true;
  }
  return false;
}

}  // namespace

std::string SerializeChain(const TaskChain& chain, int max_procs) {
  PIPEMAP_CHECK(max_procs >= 1, "SerializeChain: max_procs must be >= 1");
  const ChainCostModel& costs = chain.costs();
  std::ostringstream os;
  os << "pipemap-chain v1\n";
  os << "tasks " << chain.size() << " max_procs " << max_procs << "\n";
  for (int t = 0; t < chain.size(); ++t) {
    const std::string& name = chain.task(t).name;
    PIPEMAP_CHECK(name.find_first_of(" \t\n") == std::string::npos,
                  "SerializeChain: task names must not contain whitespace");
    os << "task " << t << " replicable " << (chain.task(t).replicable ? 1 : 0)
       << " mem_fixed " << Num(costs.Memory(t).fixed_bytes) << " mem_dist "
       << Num(costs.Memory(t).distributed_bytes) << " name " << name << "\n";
    WriteScalar(os, "exec " + std::to_string(t), costs.ExecFn(t), max_procs);
  }
  for (int e = 0; e < costs.num_edges(); ++e) {
    WriteScalar(os, "icom " + std::to_string(e), costs.IComFn(e), max_procs);
    WritePair(os, "ecom " + std::to_string(e), costs.EComFn(e), max_procs);
  }
  os << "end\n";
  return os.str();
}

TaskChain ParseChain(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  PIPEMAP_CHECK(NextLine(in, line) && line == "pipemap-chain v1",
                "chain parse: bad header");
  PIPEMAP_CHECK(NextLine(in, line), "chain parse: missing size line");
  int k = 0, max_procs = 0;
  {
    std::istringstream ls(line);
    std::string kw1, kw2;
    PIPEMAP_CHECK(static_cast<bool>(ls >> kw1 >> k >> kw2 >> max_procs) &&
                      kw1 == "tasks" && kw2 == "max_procs" && k >= 1 &&
                      static_cast<std::size_t>(k) <= kMaxParsedSamples &&
                      max_procs >= 1,
                  "chain parse: bad size line: " + line);
  }

  std::vector<Task> tasks(k);
  std::vector<MemorySpec> memory(k);
  std::vector<std::unique_ptr<ScalarCost>> exec(k);
  std::vector<std::unique_ptr<ScalarCost>> icom(std::max(0, k - 1));
  std::vector<std::unique_ptr<PairCost>> ecom(std::max(0, k - 1));

  while (NextLine(in, line) && line != "end") {
    std::istringstream ls(line);
    std::string kw;
    ls >> kw;
    if (kw == "task") {
      int t = 0, replicable = 0;
      std::string kw_r, kw_f, kw_d, kw_n, name;
      double fixed = 0, dist = 0;
      PIPEMAP_CHECK(
          static_cast<bool>(ls >> t >> kw_r >> replicable >> kw_f >> fixed >>
                            kw_d >> dist >> kw_n >> name) &&
              kw_r == "replicable" && kw_f == "mem_fixed" &&
              kw_d == "mem_dist" && kw_n == "name" && t >= 0 && t < k &&
              std::isfinite(fixed) && fixed >= 0 && std::isfinite(dist) &&
              dist >= 0,
          "chain parse: bad task line: " + line);
      tasks[t] = Task{name, replicable != 0};
      memory[t] = MemorySpec{fixed, dist};
    } else if (kw == "exec") {
      int t = 0;
      PIPEMAP_CHECK(static_cast<bool>(ls >> t) && t >= 0 && t < k,
                    "chain parse: bad exec index");
      exec[t] = ReadScalar(ls, "exec " + std::to_string(t));
    } else if (kw == "icom") {
      int e = 0;
      PIPEMAP_CHECK(static_cast<bool>(ls >> e) && e >= 0 && e < k - 1,
                    "chain parse: bad icom index");
      icom[e] = ReadScalar(ls, "icom " + std::to_string(e));
    } else if (kw == "ecom") {
      int e = 0;
      PIPEMAP_CHECK(static_cast<bool>(ls >> e) && e >= 0 && e < k - 1,
                    "chain parse: bad ecom index");
      ecom[e] = ReadPair(ls, "ecom " + std::to_string(e));
    } else {
      throw InvalidArgument("chain parse: unknown line: " + line);
    }
  }

  ChainCostModel costs;
  for (int t = 0; t < k; ++t) {
    PIPEMAP_CHECK(exec[t] != nullptr,
                  "chain parse: missing exec for task " + std::to_string(t));
    costs.AddTask(std::move(exec[t]), memory[t]);
  }
  for (int e = 0; e < k - 1; ++e) {
    PIPEMAP_CHECK(icom[e] != nullptr && ecom[e] != nullptr,
                  "chain parse: missing edge " + std::to_string(e));
    costs.SetEdge(e, std::move(icom[e]), std::move(ecom[e]));
  }
  return TaskChain(std::move(tasks), std::move(costs));
}

namespace {

// Fingerprint-completeness guard. This mirror must list every field of
// MapperOptions, in order, with identical types. Adding a field to
// MapperOptions without updating the mirror changes sizeof(MapperOptions)
// and breaks the static_assert below — on purpose: whoever adds the field
// must decide whether it belongs in SerializeMapperOptions (and therefore
// the engine's cache fingerprint) or in the documented exclusion list,
// and then extend the mirror to match.
struct MapperOptionsMirror {
  ReplicationPolicy replication;
  bool allow_clustering;
  ProcPredicate proc_feasible;
  std::size_t max_table_bytes;
  int num_threads;
  std::shared_ptr<WarmStartState> warm;
  bool incremental;  // accelerator-only, like warm/deadline: excluded from
                     // serialization and the cache fingerprint (incremental
                     // results are byte-identical to cold ones)
  std::shared_ptr<const Deadline> deadline;
};
static_assert(sizeof(MapperOptions) == sizeof(MapperOptionsMirror),
              "MapperOptions gained (or lost) a field: update "
              "SerializeMapperOptions/ParseMapperOptions and the engine "
              "fingerprint, then mirror the change here");

const char* PolicyName(ReplicationPolicy policy) {
  switch (policy) {
    case ReplicationPolicy::kNone:
      return "none";
    case ReplicationPolicy::kMaximal:
      return "maximal";
    case ReplicationPolicy::kSearch:
      return "search";
  }
  PIPEMAP_CHECK(false, "unknown replication policy");
  return "";
}

ReplicationPolicy PolicyFromName(const std::string& name) {
  if (name == "none") return ReplicationPolicy::kNone;
  if (name == "maximal") return ReplicationPolicy::kMaximal;
  if (name == "search") return ReplicationPolicy::kSearch;
  PIPEMAP_CHECK(false, "options parse: unknown replication policy: " + name);
  return ReplicationPolicy::kMaximal;
}

}  // namespace

std::string SerializeMapperOptions(const MapperOptions& options) {
  std::ostringstream os;
  os << "pipemap-mapper-options v1\n";
  os << "replication " << PolicyName(options.replication) << "\n";
  os << "allow_clustering " << (options.allow_clustering ? 1 : 0) << "\n";
  os << "max_table_bytes " << options.max_table_bytes << "\n";
  os << "has_predicate " << (options.proc_feasible ? 1 : 0) << "\n";
  os << "end\n";
  return os.str();
}

MapperOptions ParseMapperOptions(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  PIPEMAP_CHECK(NextLine(in, line) && line == "pipemap-mapper-options v1",
                "options parse: bad header");
  MapperOptions options;
  bool saw_end = false;
  while (NextLine(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream ls(line);
    std::string key;
    PIPEMAP_CHECK(static_cast<bool>(ls >> key),
                  "options parse: bad line: " + line);
    if (key == "replication") {
      std::string name;
      PIPEMAP_CHECK(static_cast<bool>(ls >> name),
                    "options parse: bad replication line");
      options.replication = PolicyFromName(name);
    } else if (key == "allow_clustering") {
      int v = 0;
      PIPEMAP_CHECK(static_cast<bool>(ls >> v) && (v == 0 || v == 1),
                    "options parse: bad allow_clustering line");
      options.allow_clustering = v == 1;
    } else if (key == "max_table_bytes") {
      unsigned long long v = 0;
      PIPEMAP_CHECK(static_cast<bool>(ls >> v),
                    "options parse: bad max_table_bytes line");
      options.max_table_bytes = static_cast<std::size_t>(v);
    } else if (key == "has_predicate") {
      int v = 0;
      PIPEMAP_CHECK(static_cast<bool>(ls >> v) && (v == 0 || v == 1),
                    "options parse: bad has_predicate line");
      PIPEMAP_CHECK(v == 0,
                    "options parse: feasibility predicates are not "
                    "serializable");
    } else {
      PIPEMAP_CHECK(false, "options parse: unknown key: " + key);
    }
  }
  PIPEMAP_CHECK(saw_end, "options parse: missing end");
  return options;
}

std::string SerializeMapping(const Mapping& mapping) {
  std::ostringstream os;
  os << "pipemap-mapping v1\n";
  os << "modules " << mapping.num_modules() << "\n";
  for (const ModuleAssignment& m : mapping.modules) {
    os << "module " << m.first_task << " " << m.last_task << " "
       << m.replicas << " " << m.procs_per_instance << "\n";
  }
  os << "end\n";
  return os.str();
}

Mapping ParseMapping(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  PIPEMAP_CHECK(NextLine(in, line) && line == "pipemap-mapping v1",
                "mapping parse: bad header");
  PIPEMAP_CHECK(NextLine(in, line), "mapping parse: missing modules line");
  int count = 0;
  {
    std::istringstream ls(line);
    std::string kw;
    PIPEMAP_CHECK(static_cast<bool>(ls >> kw >> count) && kw == "modules" &&
                      count >= 0,
                  "mapping parse: bad modules line");
  }
  Mapping mapping;
  while (NextLine(in, line) && line != "end") {
    std::istringstream ls(line);
    std::string kw;
    ModuleAssignment m;
    PIPEMAP_CHECK(static_cast<bool>(ls >> kw >> m.first_task >> m.last_task >>
                                    m.replicas >> m.procs_per_instance) &&
                      kw == "module" && m.first_task >= 0 &&
                      m.last_task >= m.first_task && m.replicas >= 1 &&
                      m.procs_per_instance >= 1,
                  "mapping parse: bad module line: " + line);
    mapping.modules.push_back(m);
  }
  PIPEMAP_CHECK(mapping.num_modules() == count,
                "mapping parse: module count mismatch");
  return mapping;
}

std::string SerializeMachine(const MachineConfig& machine) {
  std::ostringstream os;
  os << "pipemap-machine v1\n";
  os << "name " << machine.name << "\n";
  os << "grid " << machine.grid_rows << " " << machine.grid_cols << "\n";
  os << "node_memory_bytes " << Num(machine.node_memory_bytes) << "\n";
  os << "comm_mode "
     << (machine.comm_mode == CommMode::kSystolic ? "systolic" : "message")
     << "\n";
  os << "node_flops " << Num(machine.node_flops) << "\n";
  os << "msg_overhead_s " << Num(machine.msg_overhead_s) << "\n";
  os << "transfer_startup_s " << Num(machine.transfer_startup_s) << "\n";
  os << "node_bandwidth " << Num(machine.node_bandwidth) << "\n";
  os << "sync_per_proc_s " << Num(machine.sync_per_proc_s) << "\n";
  os << "pathways_per_link " << machine.pathways_per_link << "\n";
  os << "end\n";
  return os.str();
}

MachineConfig ParseMachine(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  PIPEMAP_CHECK(NextLine(in, line) && line == "pipemap-machine v1",
                "machine parse: bad header");
  MachineConfig machine;
  while (NextLine(in, line) && line != "end") {
    std::istringstream ls(line);
    std::string kw;
    ls >> kw;
    bool ok = true;
    if (kw == "name") {
      ok = static_cast<bool>(ls >> machine.name);
    } else if (kw == "grid") {
      ok = static_cast<bool>(ls >> machine.grid_rows >> machine.grid_cols);
    } else if (kw == "node_memory_bytes") {
      ok = static_cast<bool>(ls >> machine.node_memory_bytes);
    } else if (kw == "comm_mode") {
      std::string mode;
      ok = static_cast<bool>(ls >> mode) &&
           (mode == "systolic" || mode == "message");
      if (ok) {
        machine.comm_mode =
            mode == "systolic" ? CommMode::kSystolic : CommMode::kMessage;
      }
    } else if (kw == "node_flops") {
      ok = static_cast<bool>(ls >> machine.node_flops);
    } else if (kw == "msg_overhead_s") {
      ok = static_cast<bool>(ls >> machine.msg_overhead_s);
    } else if (kw == "transfer_startup_s") {
      ok = static_cast<bool>(ls >> machine.transfer_startup_s);
    } else if (kw == "node_bandwidth") {
      ok = static_cast<bool>(ls >> machine.node_bandwidth);
    } else if (kw == "sync_per_proc_s") {
      ok = static_cast<bool>(ls >> machine.sync_per_proc_s);
    } else if (kw == "pathways_per_link") {
      ok = static_cast<bool>(ls >> machine.pathways_per_link);
    } else {
      throw InvalidArgument("machine parse: unknown key '" + kw + "'");
    }
    PIPEMAP_CHECK(ok, "machine parse: bad value in line: " + line);
  }
  // Reject configurations the solvers would turn into NaN throughputs or
  // division-by-zero: every rate must be finite and positive, every
  // overhead finite and non-negative, and the grid non-empty.
  PIPEMAP_CHECK(machine.grid_rows >= 1 && machine.grid_cols >= 1,
                "machine parse: grid must be at least 1x1");
  PIPEMAP_CHECK(std::isfinite(machine.node_memory_bytes) &&
                    machine.node_memory_bytes > 0,
                "machine parse: node_memory_bytes must be finite and > 0");
  PIPEMAP_CHECK(std::isfinite(machine.node_flops) && machine.node_flops > 0,
                "machine parse: node_flops must be finite and > 0");
  PIPEMAP_CHECK(std::isfinite(machine.node_bandwidth) &&
                    machine.node_bandwidth > 0,
                "machine parse: node_bandwidth must be finite and > 0");
  PIPEMAP_CHECK(std::isfinite(machine.msg_overhead_s) &&
                    machine.msg_overhead_s >= 0,
                "machine parse: msg_overhead_s must be finite and >= 0");
  PIPEMAP_CHECK(std::isfinite(machine.transfer_startup_s) &&
                    machine.transfer_startup_s >= 0,
                "machine parse: transfer_startup_s must be finite and >= 0");
  PIPEMAP_CHECK(std::isfinite(machine.sync_per_proc_s) &&
                    machine.sync_per_proc_s >= 0,
                "machine parse: sync_per_proc_s must be finite and >= 0");
  PIPEMAP_CHECK(machine.pathways_per_link >= 1,
                "machine parse: pathways_per_link must be >= 1");
  return machine;
}

void WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  PIPEMAP_CHECK(out.good(), "cannot open for writing: " + path);
  out << content;
  PIPEMAP_CHECK(out.good(), "write failed: " + path);
}

std::string ReadTextFile(const std::string& path) {
  std::ifstream in(path);
  PIPEMAP_CHECK(in.good(), "cannot open for reading: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace pipemap
