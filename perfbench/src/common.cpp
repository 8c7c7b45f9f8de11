#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "flow/conflict_graph.h"
#include "route/global_router.h"

namespace perfbench {

namespace {
constexpr std::size_t kMaxFailureMessages = 8;
}  // namespace

const std::vector<KnownCircuit>& KnownCircuits() {
  // W* established with ITE-linear-2+muldirect / s1 (the `satfr prove`
  // default) on the identity labeling; relabelings cannot change it.
  static const std::vector<KnownCircuit> circuits = {
      {"alu2", 6, 156, 673},    {"too_large", 8, 193, 1167},
      {"alu4", 8, 261, 1832},   {"C880", 7, 263, 1704},
      {"apex7", 8, 341, 2595},  {"C1355", 8, 315, 2286},
      {"vda", 9, 362, 3406},    {"k2", 9, 412, 3666},
  };
  return circuits;
}

const KnownCircuit& FindKnownCircuit(const std::string& name) {
  for (const KnownCircuit& known : KnownCircuits()) {
    if (name == known.name) return known;
  }
  std::fprintf(stderr, "perfbench: no known answer for circuit '%s'\n",
               name.c_str());
  std::exit(2);
}

Circuit GenerateCircuit(const std::string& name) {
  Circuit out;
  out.known = FindKnownCircuit(name);
  out.bench = satfr::netlist::GenerateMcncBenchmark(name);
  out.arch = satfr::fpga::Arch(out.bench.params.grid_size);
  out.device = satfr::fpga::DeviceGraph(out.arch);
  return out;
}

RoutedCircuit RouteCircuit(Circuit circuit) {
  RoutedCircuit out;
  out.circuit = std::move(circuit);
  const Circuit& c = out.circuit;
  satfr::Stopwatch watch;
  out.routing = satfr::route::RouteGlobally(c.device, c.bench.netlist,
                                            c.bench.placement);
  out.route_seconds = watch.Seconds();
  watch.Reset();
  out.conflict = satfr::flow::BuildConflictGraph(c.arch, out.routing);
  out.conflict_graph_seconds = watch.Seconds();
  out.peak_congestion = satfr::route::PeakCongestion(c.arch, out.routing);
  if (out.conflict.num_vertices() != c.known.vertices ||
      out.conflict.num_edges() != c.known.edges) {
    std::fprintf(stderr,
                 "perfbench: %s conflict graph is %d vertices / %zu edges, "
                 "but its known W*=%d was established for %d / %zu\n",
                 c.known.name, out.conflict.num_vertices(),
                 out.conflict.num_edges(), c.known.min_width,
                 c.known.vertices, c.known.edges);
    std::exit(2);
  }
  return out;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return Sum(samples) / static_cast<double>(samples.size());
}

double TailQuantile(std::size_t count) {
  const double beyond_ten = 1.0 - 10.0 / static_cast<double>(count);
  return std::clamp(beyond_ten, 0.5, 0.99);
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& tag,
                         std::uint64_t index) {
  satfr::Rng rng(seed ^ satfr::StableHash64(tag) ^
                 (index * 0x9E3779B97F4A7C15ULL));
  return rng();
}

void WorkloadResult::Fail(const std::string& message) {
  ++failed;
  if (failures.size() < kMaxFailureMessages) failures.push_back(message);
}

void WorkloadResult::Merge(const WorkloadResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& message : other.failures) {
    if (failures.size() < kMaxFailureMessages) failures.push_back(message);
  }
}

}  // namespace perfbench
