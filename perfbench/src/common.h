// Shared pieces of the end-to-end benchmark: run configuration, the
// circuits with their known answers, exact percentiles, and the result
// record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fpga/arch.h"
#include "fpga/device_graph.h"
#include "graph/graph.h"
#include "netlist/mcnc_suite.h"
#include "route/global_routing.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome/Perfetto trace (JSON).
  std::string trace_path;
};

/// One MCNC stand-in with the answer the oracle holds it to. The vertex
/// and edge counts pin the instance: if netlist generation or global
/// routing ever produce a different conflict graph, `known_min_width` no
/// longer describes it and the benchmark refuses to run.
struct KnownCircuit {
  const char* name;
  int min_width;  // W*: routable at W*, unroutable at W*-1
  int vertices;
  std::size_t edges;
};

/// The eight Table 2 circuits in the paper's row order.
const std::vector<KnownCircuit>& KnownCircuits();
const KnownCircuit& FindKnownCircuit(const std::string& name);

/// A generated, placed circuit plus its device (netlist generation is the
/// set-up half of the flow; global routing is timed separately).
struct Circuit {
  KnownCircuit known;
  satfr::netlist::McncBenchmark bench;
  satfr::fpga::Arch arch{1};
  satfr::fpga::DeviceGraph device{satfr::fpga::Arch(1)};
};
Circuit GenerateCircuit(const std::string& name);

/// A circuit routed globally, with its conflict graph checked against the
/// pinned vertex and edge counts.
struct RoutedCircuit {
  Circuit circuit;
  satfr::route::GlobalRouting routing;
  satfr::graph::Graph conflict;
  int peak_congestion = 0;
  double route_seconds = 0.0;
  double conflict_graph_seconds = 0.0;
};
/// Routes `circuit`; exits the process if the instance drifted from the
/// pinned counts (the oracle's W* would be meaningless).
RoutedCircuit RouteCircuit(Circuit circuit);

/// Exact nearest-rank percentile of raw samples (q in [0, 1]): the
/// smallest sample with at least q of the samples at or below it. 0 for
/// an empty sample.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);
double Sum(const std::vector<double>& samples);

/// The highest quantile, at most 0.99, with at least ten of `count`
/// samples beyond it (0.5 when there are too few samples for any tail).
double TailQuantile(std::size_t count);

/// Builds a workload's inputs once untimed (first-touch page faults, cold
/// caches), then `repeats` more times, and returns the median build time;
/// `inputs` keeps the last build. Each previous build is released before
/// the next is timed.
template <typename Inputs, typename Build>
double MedianSetupSeconds(int repeats, Inputs& inputs, Build build) {
  inputs = build();
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    inputs = Inputs{};
    const auto start = std::chrono::steady_clock::now();
    inputs = build();
    samples.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return Median(samples);
}

/// Peak resident set size of this process, in MiB.
double PeakRssMib();

/// Stable per-purpose seed derivation: distinct (seed, tag, index) triples
/// give unrelated streams.
std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& tag,
                         std::uint64_t index);

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few oracle messages, for the human-readable report.
  std::vector<std::string> failures;
  /// Metric values by name; main.cpp owns the names' units.
  std::map<std::string, double> metrics;
  /// Human-readable lines (sample counts, generator lag, ...).
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Fail(const std::string& message);
  /// Adds another tally's attempts and failures to this one.
  void Merge(const WorkloadResult& other);
};

}  // namespace perfbench
