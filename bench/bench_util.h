// Shared infrastructure for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper (see
// DESIGN.md §5). Instances are produced by the same pipeline the library
// exposes: synthetic MCNC benchmark -> negotiated global routing ->
// conflict graph; the minimum routable width W* is then established with a
// fast reference strategy so that "routable" (W*) and "unroutable" (W*-1)
// configurations match the paper's setup.
//
// Environment knobs (all optional):
//   SATFR_BENCH_TIMEOUT   per-solve timeout in seconds (default 10)
//   SATFR_BENCH_SET       "table2" (default) | "small" — which benchmarks
//                         the heavy benches iterate over
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strings.h"
#include "flow/conflict_graph.h"
#include "flow/min_width.h"
#include "graph/coloring_bounds.h"
#include "netlist/mcnc_suite.h"
#include "obs/json.h"
#include "route/global_router.h"

namespace satfr::bench {

/// Writes a bench report document through the shared JSON model
/// (obs::JsonValue) instead of hand-rolled fprintf: key order is the
/// insertion order, so the emitted schema is deterministic and parseable by
/// the same code that reads run reports. Returns false after printing the
/// bench-style error.
inline bool WriteJsonReport(const std::string& path,
                            const obs::JsonValue& doc) {
  std::string error;
  if (!obs::WriteJsonFile(path, doc, &error)) {
    std::fprintf(stderr, "bench: cannot write '%s': %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

inline double BenchTimeoutSeconds() {
  if (const char* env = std::getenv("SATFR_BENCH_TIMEOUT")) {
    const double value = std::atof(env);
    if (value > 0.0) return value;
  }
  return 10.0;
}

inline std::vector<std::string> BenchInstanceNames() {
  if (const char* env = std::getenv("SATFR_BENCH_SET")) {
    if (std::string(env) == "small") {
      return {"tiny", "9symml", "term1", "example2"};
    }
  }
  return netlist::Table2BenchmarkNames();
}

/// A fully prepared routing instance.
struct Instance {
  std::string name;
  fpga::Arch arch{1};
  route::GlobalRouting routing;
  graph::Graph conflict;
  int peak_congestion = 0;   // lower bound on W*
  int dsatur_width = 0;      // upper bound on W*
  int min_width = -1;        // W* (exact, established by SAT)
};

/// Builds the instance and establishes W* with the paper's best strategy
/// (ITE-linear-2+muldirect / s1). Exits the process if W* cannot be
/// established within 60x the bench timeout (mis-calibrated instance).
inline Instance LoadInstance(const std::string& name) {
  Instance inst;
  inst.name = name;
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark(name);
  inst.arch = fpga::Arch(bench.params.grid_size);
  const fpga::DeviceGraph device(inst.arch);
  inst.routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  inst.conflict = flow::BuildConflictGraph(inst.arch, inst.routing);
  inst.peak_congestion = route::PeakCongestion(inst.arch, inst.routing);
  inst.dsatur_width =
      graph::NumColorsUsed(graph::DsaturColoring(inst.conflict));

  flow::MinWidthOptions options;
  options.route.encoding = encode::GetEncoding("ITE-linear-2+muldirect");
  options.route.heuristic = symmetry::Heuristic::kS1;
  options.route.timeout_seconds = 60.0 * BenchTimeoutSeconds();
  const flow::MinWidthResult result = flow::FindMinimumWidthOnGraph(
      inst.conflict, inst.peak_congestion, options);
  if (result.min_width < 0) {
    std::fprintf(stderr,
                 "bench: failed to establish W* for '%s' within budget\n",
                 name.c_str());
    std::exit(1);
  }
  inst.min_width = result.min_width;
  return inst;
}

/// Fixed-width ASCII table writer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<int> widths) : widths_(std::move(widths)) {}

  void Row(const std::vector<std::string>& cells) const {
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const int width = i < widths_.size() ? widths_[i] : 12;
      std::string cell = cells[i];
      if (static_cast<int>(cell.size()) < width) {
        cell = std::string(static_cast<std::size_t>(width) - cell.size(),
                           ' ') +
               cell;
      }
      line += cell;
      line += (i + 1 < cells.size()) ? "  " : "";
    }
    std::printf("%s\n", line.c_str());
  }

  void Separator() const {
    std::size_t total = 0;
    for (const int w : widths_) total += static_cast<std::size_t>(w) + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
  }

 private:
  std::vector<int> widths_;
};

/// Formats a solve outcome for a table cell: seconds, or ">limit" on
/// timeout.
inline std::string TimeCell(double seconds, bool timed_out) {
  if (timed_out) {
    return std::string(">").append(FormatSecondsPaperStyle(seconds));
  }
  return FormatSecondsPaperStyle(seconds);
}

}  // namespace satfr::bench
