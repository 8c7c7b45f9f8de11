// Workload `table2-prove`: the paper's own end-to-end, one caller, no
// service. A cell is one Table 2 circuit under one seeded vertex
// relabeling of its conflict graph: global route -> conflict graph -> W*
// sweep (ending in the W*-1 UNSAT proof) -> track check of the W* routing.
//
// The run is a sequence of rounds, each proving every relabeled circuit
// once under a fresh relabeling, so those circuits contribute equal cell
// counts. apex7, C1355, vda and k2 are solved on their own labeling, a
// fixed number of times: under relabeling their W*-1 proofs grow a tail
// (seconds for apex7 and C1355, past any budget for vda and k2; README.md
// gives the measurements) that makes a 45-second run's figures swing with
// the seed, and a timed-out cell would be a failed operation.
//
// The untraced cell calls flow::FindMinimumWidthOnGraph. The traced cell
// replays the same sweep stage by stage through the public layer entry
// points (symmetry -> encode -> SAT -> decode) inside obs::TraceSpan spans,
// and must reproduce the untraced W* and conflict counts exactly.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "flow/conflict_graph.h"
#include "flow/min_width.h"
#include "flow/track_checker.h"
#include "oracle.h"
#include "relabel.h"
#include "route/global_router.h"
#include "sat/clause_sink.h"
#include "symmetry/symmetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using satfr::Stopwatch;
using satfr::graph::Graph;
using satfr::sat::SolveResult;

constexpr int kMinRounds = 5;
constexpr int kIdentityCells = 5;
constexpr int kSetupRepeats = 101;
// Percentile of each circuit's cell walls behind latency_tail_ms.
constexpr double kTailQuantile = 0.9;
// Per-solve budget; a cell that needs more is a failed operation.
constexpr double kSolveBudgetSeconds = 60.0;
constexpr const char* kEncoding = "ITE-linear-2+muldirect";
constexpr satfr::symmetry::Heuristic kSymmetry =
    satfr::symmetry::Heuristic::kS1;

bool Relabeled(const std::string& name) {
  return name == "alu2" || name == "too_large" || name == "alu4" ||
         name == "C880";
}

// The `satfr prove` default strategy, set explicitly: the library default
// (muldirect / no symmetry breaking) times out on the larger circuits.
satfr::flow::MinWidthOptions ProveOptions() {
  satfr::flow::MinWidthOptions options;
  options.route.encoding = satfr::encode::GetEncoding(kEncoding);
  options.route.heuristic = kSymmetry;
  options.route.solver = satfr::sat::SolverOptions::SiegeLike();
  options.route.timeout_seconds = kSolveBudgetSeconds;
  return options;
}

// A cell's labeling of its circuit's conflict graph; the identity
// labeling keeps an empty permutation.
struct Labeled {
  Relabeling relabeling;

  const Graph& Of(const Graph& original) const {
    return relabeling.permutation.empty() ? original : relabeling.graph;
  }
  std::vector<int> ToCircuit(const std::vector<int>& tracks) const {
    return relabeling.permutation.empty()
               ? tracks
               : MapBack(relabeling.permutation, tracks);
  }
};

Labeled Label(const Graph& graph, bool relabel, std::uint64_t seed) {
  Labeled out;
  if (relabel) out.relabeling = RelabelGraph(graph, seed);
  return out;
}

struct CellOutcome {
  double wall = 0.0;  // timed stages only; relabeling excluded
  int min_width = -1;
  std::uint64_t conflicts_at_min = 0;
  std::uint64_t conflicts_below_min = 0;
};

// Geometric mean, so that each circuit weighs the same whatever its size.
double GeometricMean(const std::vector<double>& samples) {
  double log_sum = 0.0;
  for (double x : samples) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

// Oracle for one cell; returns "" when every answer checks out.
std::string CheckCell(const KnownCircuit& known, const Graph& solved,
                      const satfr::flow::MinWidthResult& result,
                      const std::string& track_error) {
  if (result.min_width != known.min_width) {
    return "W*=" + std::to_string(result.min_width) + ", expected " +
           std::to_string(known.min_width);
  }
  std::string error = CheckAnswer(known.min_width, solved, result.min_width,
                                  result.routable.status,
                                  result.routable.tracks);
  if (error.empty() && result.min_width > 1) {
    error = !result.proven_optimal
                ? "W*-1 not proven unroutable"
                : CheckAnswer(known.min_width, solved, result.min_width - 1,
                              result.unroutable.status, {});
  }
  if (error.empty() && !track_error.empty()) {
    error = "track check: " + track_error;
  }
  return error;
}

CellOutcome RunCell(const Circuit& circuit, std::uint64_t relabel_seed,
                    WorkloadResult& result, int& track_failures) {
  CellOutcome out;
  Stopwatch watch;
  const satfr::route::GlobalRouting routing = satfr::route::RouteGlobally(
      circuit.device, circuit.bench.netlist, circuit.bench.placement);
  const Graph graph = satfr::flow::BuildConflictGraph(circuit.arch, routing);
  const int peak = satfr::route::PeakCongestion(circuit.arch, routing);
  out.wall = watch.Seconds();

  const Labeled labeled =
      Label(graph, Relabeled(circuit.known.name), relabel_seed);

  watch.Reset();
  const satfr::flow::MinWidthResult mw =
      satfr::flow::FindMinimumWidthOnGraph(labeled.Of(graph), peak,
                                           ProveOptions());
  std::string track_error;
  const bool tracks_valid =
      mw.min_width > 0 &&
      satfr::flow::ValidateTrackAssignment(
          circuit.arch, routing, labeled.ToCircuit(mw.routable.tracks),
          mw.min_width, &track_error);
  out.wall += watch.Seconds();

  out.min_width = mw.min_width;
  out.conflicts_at_min = mw.routable.solver_stats.conflicts;
  out.conflicts_below_min = mw.unroutable.solver_stats.conflicts;
  ++result.attempted;
  if (mw.min_width > 0 && !tracks_valid) ++track_failures;
  const std::string error =
      CheckCell(circuit.known, labeled.Of(graph), mw, track_error);
  if (!error.empty()) {
    result.Fail(std::string(circuit.known.name) + " relabel " +
                std::to_string(relabel_seed) + ": " + error);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced replay of the same cell.

// Seconds per leaf stage of the traced replay. The non-leaf spans (cell,
// flow.sweep, flow.width) only group the leaves in the trace; their own
// time is the cell wall minus its leaves.
using StageSeconds = std::map<std::string, double>;

// One leaf stage: a span in the trace, and its wall time added to `into`.
class Stage {
 public:
  Stage(TraceWriter* trace, const char* name, StageSeconds& into)
      : span_(trace, name, "perfbench"), name_(name), into_(&into) {}
  ~Stage() { End(); }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  void End() {
    if (into_ == nullptr) return;
    (*into_)[name_] += watch_.Seconds();
    into_ = nullptr;
    span_.End();
  }

 private:
  satfr::obs::TraceSpan span_;
  const char* name_;
  StageSeconds* into_;
  Stopwatch watch_;
};

struct WidthSolve {
  SolveResult status = SolveResult::kUnknown;
  std::vector<int> tracks;
  satfr::sat::SolverStats stats;
  double solve_seconds = 0.0;
};

// Per-circuit sums over the traced cells.
struct CircuitTotals {
  StageSeconds stages;
  double traced_wall = 0.0;  // relabeling excluded
  double untraced_wall = 0.0;
};

struct TracedTotals {
  std::uint64_t cells = 0;
  std::uint64_t widths = 0;
  std::uint64_t timeouts = 0;
  double vars = 0.0;
  double clauses = 0.0;
  double solve_sat_s = 0.0;
  double solve_unsat_s = 0.0;
  double conflicts = 0.0;
  double propagations = 0.0;
  double decisions = 0.0;
  std::vector<CircuitTotals> circuits;
};

// Mirrors flow::RouteDetailedOnGraph's streaming path: symmetry sequence,
// a fresh solver fed by the encoder through a SolverSink, one Solve.
WidthSolve SolveWidth(const Graph& graph, int width, TraceWriter* trace,
                      StageSeconds& stages, TracedTotals& totals) {
  satfr::obs::TraceSpan width_span(trace, "flow.width", "perfbench");
  width_span.AddArg("width", width);
  std::vector<satfr::graph::VertexId> sequence;
  {
    Stage stage(trace, "symmetry.sequence", stages);
    sequence = satfr::symmetry::SymmetrySequence(graph, width, kSymmetry);
  }
  Stage encode(trace, "encode", stages);
  satfr::sat::Solver solver(satfr::sat::SolverOptions::SiegeLike());
  satfr::sat::SolverSink sink(solver);
  const satfr::encode::ColoringLayout layout =
      satfr::encode::EncodeColoringToSink(
          graph, width, satfr::encode::GetEncoding(kEncoding), sequence,
          sink);
  const bool consistent = sink.Finish();
  encode.End();

  WidthSolve out;
  {
    Stage stage(trace, "sat.solve", stages);
    Stopwatch solve_watch;
    out.status = consistent
                     ? solver.Solve(satfr::Deadline::After(kSolveBudgetSeconds))
                     : SolveResult::kUnsat;
    out.solve_seconds = solve_watch.Seconds();
  }
  out.stats = solver.stats();
  if (out.status == SolveResult::kSat) {
    Stage stage(trace, "decode", stages);
    out.tracks = satfr::encode::DecodeColoring(layout, solver.model());
  }

  ++totals.widths;
  totals.vars += layout.num_vars;
  totals.clauses += static_cast<double>(layout.stats.TotalEmitted());
  totals.conflicts += static_cast<double>(out.stats.conflicts);
  totals.propagations += static_cast<double>(out.stats.propagations);
  totals.decisions += static_cast<double>(out.stats.decisions);
  if (out.status == SolveResult::kSat) totals.solve_sat_s += out.solve_seconds;
  if (out.status == SolveResult::kUnsat) {
    totals.solve_unsat_s += out.solve_seconds;
  }
  if (out.status == SolveResult::kUnknown) ++totals.timeouts;
  return out;
}

// Mirrors flow::FindMinimumWidthOnGraph: scan up from the congestion bound;
// if the first probe is already SAT, prove width-1 explicitly.
struct Sweep {
  int min_width = -1;
  WidthSolve routable;
  WidthSolve unroutable;
};

Sweep TracedSweep(const Graph& graph, int lower_bound, TraceWriter* trace,
                  StageSeconds& stages, TracedTotals& totals) {
  satfr::obs::TraceSpan span(trace, "flow.sweep", "perfbench");
  Sweep out;
  WidthSolve previous;
  bool have_previous = false;
  const int max_width = ProveOptions().max_width;
  for (int width = std::max(1, lower_bound); width <= max_width; ++width) {
    WidthSolve attempt = SolveWidth(graph, width, trace, stages, totals);
    if (attempt.status == SolveResult::kUnknown) return out;
    if (attempt.status == SolveResult::kSat) {
      out.min_width = width;
      out.routable = std::move(attempt);
      if (have_previous) {
        out.unroutable = std::move(previous);
      } else if (width > 1) {
        out.unroutable = SolveWidth(graph, width - 1, trace, stages, totals);
      }
      return out;
    }
    previous = std::move(attempt);
    have_previous = true;
  }
  return out;
}

void RunTracedCell(const Circuit& circuit, std::uint64_t relabel_seed,
                   const CellOutcome& untraced, TraceWriter* trace,
                   CircuitTotals& circuit_totals, TracedTotals& totals,
                   WorkloadResult& result) {
  StageSeconds& stages = circuit_totals.stages;
  Stopwatch cell_watch;
  satfr::obs::TraceSpan cell(trace, "cell", "perfbench");
  cell.AddArg("circuit", circuit.known.name);
  cell.AddArg("relabel_seed", relabel_seed);
  satfr::route::GlobalRouting routing;
  {
    Stage stage(trace, "route.global", stages);
    routing = satfr::route::RouteGlobally(
        circuit.device, circuit.bench.netlist, circuit.bench.placement);
  }
  Graph graph;
  int peak = 0;
  {
    Stage stage(trace, "conflict_graph.build", stages);
    graph = satfr::flow::BuildConflictGraph(circuit.arch, routing);
    peak = satfr::route::PeakCongestion(circuit.arch, routing);
  }
  Labeled labeled;
  Stopwatch relabel_watch;
  {
    satfr::obs::TraceSpan span(trace, "harness.relabel", "perfbench");
    labeled = Label(graph, Relabeled(circuit.known.name), relabel_seed);
  }
  const double relabel_seconds = relabel_watch.Seconds();
  const Sweep sweep =
      TracedSweep(labeled.Of(graph), peak, trace, stages, totals);
  {
    Stage stage(trace, "track_check", stages);
    if (sweep.min_width > 0) {
      satfr::flow::ValidateTrackAssignment(
          circuit.arch, routing, labeled.ToCircuit(sweep.routable.tracks),
          sweep.min_width);
    }
  }
  cell.End();

  ++totals.cells;
  circuit_totals.traced_wall += cell_watch.Seconds() - relabel_seconds;
  circuit_totals.untraced_wall += untraced.wall;
  if (sweep.min_width != untraced.min_width ||
      sweep.routable.stats.conflicts != untraced.conflicts_at_min ||
      sweep.unroutable.stats.conflicts != untraced.conflicts_below_min) {
    result.Fail(std::string(circuit.known.name) + " relabel " +
                std::to_string(relabel_seed) +
                ": traced replay diverged (W* " +
                std::to_string(sweep.min_width) + " vs " +
                std::to_string(untraced.min_width) + ", conflicts " +
                std::to_string(sweep.routable.stats.conflicts) + "/" +
                std::to_string(sweep.unroutable.stats.conflicts) + " vs " +
                std::to_string(untraced.conflicts_at_min) + "/" +
                std::to_string(untraced.conflicts_below_min) + ")");
  }
}

}  // namespace

WorkloadResult RunTable2Prove(const RunConfig& config, TraceWriter* trace) {
  WorkloadResult result;

  std::vector<Circuit> circuits;
  const double setup_seconds =
      MedianSetupSeconds(kSetupRepeats, circuits, [] {
        std::vector<Circuit> built;
        for (const KnownCircuit& known : KnownCircuits()) {
          built.push_back(GenerateCircuit(known.name));
        }
        return built;
      });

  std::vector<std::vector<double>> walls(circuits.size());
  TracedTotals totals;
  totals.circuits.resize(circuits.size());
  int track_failures = 0;
  const auto run_cell = [&](std::size_t c, std::uint64_t index) {
    const Circuit& circuit = circuits[c];
    const std::uint64_t relabel_seed =
        DeriveSeed(config.seed, circuit.known.name, index);
    const CellOutcome cell =
        RunCell(circuit, relabel_seed, result, track_failures);
    walls[c].push_back(cell.wall);
    if (trace != nullptr) {
      RunTracedCell(circuit, relabel_seed, cell, trace, totals.circuits[c],
                    totals, result);
    }
  };
  // Identity cells are spread over the run (one per circuit at the start
  // of each fifth) so a slow stretch of the machine cannot own them all.
  Stopwatch clock;
  int identity_passes = 0;
  for (int round = 0; round < kMinRounds || clock.Seconds() < config.seconds;
       ++round) {
    if (identity_passes < kIdentityCells &&
        clock.Seconds() >= identity_passes * config.seconds / kIdentityCells) {
      for (std::size_t c = 0; c < circuits.size(); ++c) {
        if (!Relabeled(circuits[c].known.name)) run_cell(c, identity_passes);
      }
      ++identity_passes;
    }
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      if (Relabeled(circuits[c].known.name)) run_cell(c, round);
    }
  }
  for (; identity_passes < kIdentityCells; ++identity_passes) {
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      if (!Relabeled(circuits[c].known.name)) run_cell(c, identity_passes);
    }
  }

  // Cell walls are not pooled across circuits: the pooled median and tail
  // fall into gaps between circuits' walls and jump with the cell counts.
  std::vector<double> medians;
  std::vector<double> tails;
  std::size_t cells = 0;
  double prove_total = 0.0;
  double rate_sum = 0.0;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const std::vector<double>& w = walls[c];
    prove_total += Median(w);
    rate_sum += 1.0 / Median(w);
    medians.push_back(Median(w));
    tails.push_back(Percentile(w, kTailQuantile));
    cells += w.size();
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-10s W*=%d cells=%zu median=%.4fs max=%.4fs",
                  circuits[c].known.name, circuits[c].known.min_width,
                  w.size(), Median(w), Percentile(w, 1.0));
    result.notes.push_back(line);
  }

  result.Set("setup_s", setup_seconds);
  result.Set("prove_total_s", prove_total);
  result.Set("throughput_rps",
             rate_sum / static_cast<double>(circuits.size()));
  result.Set("latency_p50_ms", GeometricMean(medians) * 1e3);
  result.Set("latency_tail_ms", GeometricMean(tails) * 1e3);
  char line[200];
  std::snprintf(line, sizeof line,
                "cells=%zu; latency_p50_ms and latency_tail_ms are geometric "
                "means over the %zu circuits of their median and p%.0f walls",
                cells, circuits.size(), kTailQuantile * 100.0);
  result.notes.push_back(line);

  if (trace != nullptr) {
    // Stage sums over every circuit, and the stage-sum check per circuit:
    // each circuit's traced stages against its own untraced cells, with
    // the median over circuits taken so one slow replay cannot decide it.
    StageSeconds stages;
    std::vector<double> stage_sum_ratios;
    std::vector<double> overheads;
    std::string ratios = "stage sum / untraced wall per circuit:";
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      const CircuitTotals& circuit = totals.circuits[c];
      double stage_sum = 0.0;
      for (const auto& [name, seconds] : circuit.stages) {
        stages[name] += seconds;
        stage_sum += seconds;
      }
      stage_sum_ratios.push_back(stage_sum / circuit.untraced_wall);
      overheads.push_back(circuit.traced_wall / circuit.untraced_wall - 1.0);
      char item[48];
      std::snprintf(item, sizeof item, " %s %.3f", circuits[c].known.name,
                    stage_sum_ratios.back());
      ratios += item;
    }
    result.notes.push_back(ratios);
    const double cells = static_cast<double>(std::max<std::uint64_t>(
        totals.cells, 1));
    const double widths = static_cast<double>(std::max<std::uint64_t>(
        totals.widths, 1));
    result.Set("route.global_s", stages["route.global"] / cells);
    result.Set("conflict_graph.build_s",
               stages["conflict_graph.build"] / cells);
    result.Set("flow.widths_solved", widths / cells);
    result.Set("flow.useful_solve_ratio", 2.0 * cells / widths);
    result.Set("symmetry.sequence_s", stages["symmetry.sequence"] / cells);
    result.Set("encode.s", stages["encode"] / cells);
    result.Set("encode.vars", totals.vars / widths);
    result.Set("encode.clauses", totals.clauses / widths);
    result.Set("sat.solve_unsat_s", totals.solve_unsat_s / cells);
    result.Set("sat.solve_sat_s", totals.solve_sat_s / cells);
    result.Set("sat.conflicts", totals.conflicts / cells);
    result.Set("sat.propagations", totals.propagations / cells);
    result.Set("sat.decisions", totals.decisions / cells);
    result.Set("sat.timeouts", static_cast<double>(totals.timeouts));
    result.Set("track_check.s", stages["track_check"] / cells);
    result.Set("track_check.failures", track_failures);
    const double stage_sum_ratio = Median(stage_sum_ratios);
    result.Set("harness.stage_sum_ratio", stage_sum_ratio);
    if (stage_sum_ratio < 0.95 || stage_sum_ratio > 1.05) {
      result.Fail("stage times sum to " + std::to_string(stage_sum_ratio) +
                  " of the untraced wall (median over circuits), outside 5%");
    }
    result.Set("harness.tracing_overhead", Median(overheads));
  }
  return result;
}

}  // namespace perfbench
