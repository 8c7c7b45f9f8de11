#include "flow/detailed_router.h"

#include <cassert>
#include <optional>
#include <utility>

#include "analysis/runner.h"
#include "cube/cube_solver.h"
#include "flow/conflict_graph.h"
#include "flow/track_checker.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/solver_trace.h"
#include "obs/trace.h"
#include "sat/clause_sink.h"
#include "sat/rup_checker.h"

namespace satfr::flow {
namespace {

const char* RunLabel(const DetailedRouteOptions& options) {
  return options.run_label.empty() ? "graph" : options.run_label.c_str();
}

/// Every kSat leaves the runner through this check, in every build type; a
/// failed check turns the answer into kUnknown with `error` set.
void CheckColoring(const graph::Graph& conflict_graph, int num_tracks,
                   DetailedRouteResult* result) {
  std::string error;
  if (result->status == sat::SolveResult::kSat &&
      !ValidateColoring(conflict_graph, result->tracks, num_tracks, &error)) {
    result->status = sat::SolveResult::kUnknown;
    result->tracks.clear();
    result->error = "SAT model failed the track check: " + error;
  }
}

/// One width on one fresh solver. `routing` is non-null only when the
/// caller extracted the conflict graph from a global routing itself; the
/// selfcheck's flow-two-pin pass then cross-checks the two.
DetailedRouteResult SolveMonolithic(const graph::Graph& conflict_graph,
                                    int num_tracks,
                                    const DetailedRouteOptions& options,
                                    const route::GlobalRouting* routing) {
  DetailedRouteResult result;

  // Telemetry is pull-installed: both sinks default to null, so a solve
  // with telemetry off costs two atomic loads here and nothing downstream.
  obs::TraceWriter* trace = obs::GlobalTrace();
  obs::RunReportWriter* report = obs::GlobalReport();

  Stopwatch encode_watch;
  obs::TraceSpan encode_span(trace, "encode", "flow");
  encode_span.AddArg("instance", obs::JsonValue(RunLabel(options)));
  encode_span.AddArg("encoding", obs::JsonValue(options.encoding.name));
  encode_span.AddArg("symmetry",
                     obs::JsonValue(symmetry::ToString(options.heuristic)));
  encode_span.AddArg("width", obs::JsonValue(num_tracks));

  const std::vector<graph::VertexId> sequence = symmetry::SymmetrySequence(
      conflict_graph, num_tracks, options.heuristic);

  sat::Solver solver(options.solver);
  std::optional<obs::SolverTelemetryObserver> observer;
  if (trace != nullptr || report != nullptr) {
    observer.emplace(trace);
    solver.SetObserver(&*observer);
  }
  std::vector<sat::Clause> proof;
  if (options.verify_unsat_proof) solver.SetProofLog(&proof);
  if (options.exchange != nullptr && options.exchange_participant >= 0) {
    solver.SetClauseExchange(options.exchange, options.exchange_participant);
  }

  // The encoder always streams straight into the solver. The lint passes
  // re-walk the CNF and the RUP checker re-propagates it, so only then is
  // the stream teed into a collected Cnf as well.
  encode::EncodedColoring encoded;
  sat::SolverSink direct(solver);
  sat::CnfCollectorSink collect(encoded.cnf);
  sat::TeeSink tee(direct, collect);
  sat::ClauseSink& sink = options.selfcheck || options.verify_unsat_proof
                              ? static_cast<sat::ClauseSink&>(tee)
                              : direct;
  static_cast<encode::ColoringLayout&>(encoded) = encode::EncodeColoringToSink(
      conflict_graph, num_tracks, options.encoding, sequence, sink);
  const bool consistent = sink.Finish();
  if (options.selfcheck) {
    const analysis::AnalysisRunner runner = analysis::MakeDefaultRunner();
    analysis::AnalysisInput lint_input;
    lint_input.cnf = &encoded.cnf;
    lint_input.conflict_graph = &conflict_graph;
    lint_input.encoded = &encoded;
    lint_input.spec = &options.encoding;
    lint_input.symmetry_sequence = &sequence;
    lint_input.routing = routing;
    analysis::AnalysisReport report = runner.Run(lint_input);
    const bool broken = report.HasErrors();
    result.lint = std::move(report.diagnostics);
    if (broken) {
      // Never solve a formula that violates its own encoding contract: its
      // answer would say nothing about the routing instance.
      result.encode_seconds = encode_watch.Seconds();
      result.status = sat::SolveResult::kUnknown;
      return result;
    }
  }
  result.cnf_vars = encoded.num_vars;
  result.cnf_clauses = encoded.stats.TotalEmitted();
  result.encode_stats = encoded.stats;
  result.encode_seconds = encode_watch.Seconds();
  encode_span.AddArg("vars", obs::JsonValue(result.cnf_vars));
  encode_span.AddArg("clauses",
                     obs::JsonValue(static_cast<std::uint64_t>(
                         result.cnf_clauses)));
  encode_span.End();

  Stopwatch solve_watch;
  obs::TraceSpan solve_span(trace, "solve", "flow");
  solve_span.AddArg("instance", obs::JsonValue(RunLabel(options)));
  solve_span.AddArg("encoding", obs::JsonValue(options.encoding.name));
  solve_span.AddArg("width", obs::JsonValue(num_tracks));
  if (!consistent) {
    result.status = sat::SolveResult::kUnsat;
  } else {
    const Deadline deadline = options.timeout_seconds > 0.0
                                  ? Deadline::After(options.timeout_seconds)
                                  : Deadline::Infinite();
    result.status = solver.Solve(deadline, options.stop);
  }
  result.solve_seconds = solve_watch.Seconds();
  result.solver_stats = solver.stats();
  solve_span.AddArg("verdict", obs::JsonValue(sat::ToString(result.status)));
  solve_span.End();

  if (result.status == sat::SolveResult::kSat) {
    result.tracks = encode::DecodeColoring(encoded, solver.model());
    CheckColoring(conflict_graph, num_tracks, &result);
  } else if (result.status == sat::SolveResult::kUnsat &&
             options.verify_unsat_proof) {
    result.proof_clauses = proof.size();
    result.proof_verified = sat::VerifyRupRefutation(encoded.cnf, proof);
  }

  // Written from the checked result: a model the check rejected is
  // recorded as UNKNOWN, not SAT.
  if (report != nullptr) {
    obs::RunRecord record;
    record.instance = RunLabel(options);
    record.phase = "route";
    record.encoding = options.encoding.name;
    record.symmetry = symmetry::ToString(options.heuristic);
    record.width = num_tracks;
    record.verdict = sat::ToString(result.status);
    record.encode_seconds = result.encode_seconds;
    record.solve_seconds = result.solve_seconds;
    record.total_seconds = result.TotalSeconds();
    record.cnf_vars = static_cast<std::uint64_t>(result.cnf_vars);
    record.cnf_clauses = static_cast<std::uint64_t>(result.cnf_clauses);
    // The solver is fresh in this function, so its lifetime stats ARE the
    // solve window.
    record.SetSolverWindow(solver.stats());
    const sat::LearntTierSizes tiers = solver.TierSizes();
    record.learnts_core = tiers.core;
    record.learnts_tier2 = tiers.tier2;
    record.learnts_local = tiers.local;
    record.peak_clause_memory_bytes = solver.ClauseMemoryBytes();
    if (observer.has_value()) observer->FillRecord(&record);
    report->Append(record);
  }
  return result;
}

/// One width on a cube worker pool: the one place a cube::CubeSolveResult
/// becomes a DetailedRouteResult. A fresh pool per call mirrors the
/// monolithic semantics: every width is encoded and solved from nothing.
DetailedRouteResult SolveWithCubes(const graph::Graph& conflict_graph,
                                   int num_tracks,
                                   const DetailedRouteOptions& options) {
  DetailedRouteResult result;
  if (options.selfcheck || options.verify_unsat_proof) {
    result.error =
        "selfcheck and verify_unsat_proof need the monolithic solver "
        "(cube_workers = 0)";
    return result;
  }
  cube::CubeSolveOptions cube_options;
  cube_options.pool.num_workers = options.cube_workers;
  cube_options.pool.deterministic = options.cube_deterministic;
  cube_options.pool.share_max_lbd = options.solver.share_max_lbd;
  cube_options.gen.target_cubes = options.cube_target_cubes;
  cube_options.solver = options.solver;
  cube_options.timeout_seconds = options.timeout_seconds;
  cube_options.stop = options.stop;
  cube_options.run_label = options.run_label;
  cube::CubeSolveResult cube_result = cube::SolveColoringWithCubes(
      conflict_graph, num_tracks, options.encoding, options.heuristic,
      cube_options);
  result.status = cube_result.status;
  result.tracks = std::move(cube_result.colors);
  result.solve_seconds = cube_result.wall_seconds;
  result.cnf_vars = cube_result.cnf_vars;
  result.cnf_clauses = cube_result.encode_stats.TotalEmitted();
  result.encode_stats = cube_result.encode_stats;
  result.solver_stats = cube_result.solver_stats;
  result.error = std::move(cube_result.error);
  CheckColoring(conflict_graph, num_tracks, &result);
  return result;
}

/// Encode -> solve -> decode -> check for one width.
DetailedRouteResult SolveOnGraph(const graph::Graph& conflict_graph,
                                 int num_tracks,
                                 const DetailedRouteOptions& options,
                                 const route::GlobalRouting* routing) {
  DetailedRouteResult result =
      options.cube_workers > 0
          ? SolveWithCubes(conflict_graph, num_tracks, options)
          : SolveMonolithic(conflict_graph, num_tracks, options, routing);
  result.conflict_vertices = conflict_graph.num_vertices();
  result.conflict_edges = conflict_graph.num_edges();
  static const obs::MetricId solves =
      obs::GlobalMetrics().Counter("flow.solves");
  obs::GlobalMetrics().Add(solves);
  return result;
}

}  // namespace

DetailedRouteResult RouteDetailed(const fpga::Arch& arch,
                                  const route::GlobalRouting& routing,
                                  int num_tracks,
                                  const DetailedRouteOptions& options) {
  const graph::Graph conflict_graph = BuildConflictGraph(arch, routing);
  DetailedRouteResult result =
      SolveOnGraph(conflict_graph, num_tracks, options, &routing);
#ifndef NDEBUG
  if (result.status == sat::SolveResult::kSat) {
    std::string error;
    assert(ValidateTrackAssignment(arch, routing, result.tracks, num_tracks,
                                   &error) &&
           "SAT model must decode to a valid detailed routing");
  }
#endif
  return result;
}

DetailedRouteResult RouteDetailedOnGraph(
    const graph::Graph& conflict_graph, int num_tracks,
    const DetailedRouteOptions& options) {
  return SolveOnGraph(conflict_graph, num_tracks, options,
                      /*routing=*/nullptr);
}

}  // namespace satfr::flow
