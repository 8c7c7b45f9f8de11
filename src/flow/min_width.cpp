#include "flow/min_width.h"

#include <algorithm>
#include <string>

#include "cube/cube_solver.h"
#include "flow/conflict_graph.h"
#include "obs/trace.h"

namespace satfr::flow {

namespace {

// One width solved by a cube worker pool, adapted to the scratch search's
// per-width result shape. A fresh pool per width mirrors the scratch
// semantics: every width is encoded and solved from nothing.
DetailedRouteResult RouteWidthWithCubes(const graph::Graph& conflict_graph,
                                        int width,
                                        const MinWidthOptions& options) {
  cube::CubeSolveOptions cube_options;
  cube_options.pool.num_workers = options.cube_workers;
  cube_options.pool.deterministic = options.cube_deterministic;
  cube_options.pool.share_max_lbd = options.route.solver.share_max_lbd;
  cube_options.gen.target_cubes = options.cube_target_cubes;
  cube_options.solver = options.route.solver;
  cube_options.timeout_seconds = options.route.timeout_seconds;
  cube_options.stop = options.route.stop;
  cube_options.run_label = options.route.run_label;
  const cube::CubeSolveResult cube_result = cube::SolveColoringWithCubes(
      conflict_graph, width, options.route.encoding, options.route.heuristic,
      cube_options);

  DetailedRouteResult out;
  out.status = cube_result.status;
  out.tracks = cube_result.colors;
  out.conflict_vertices = conflict_graph.num_vertices();
  out.conflict_edges = conflict_graph.num_edges();
  out.solve_seconds = cube_result.wall_seconds;
  out.solver_stats = cube_result.solver_stats;
  out.streamed_encode = true;
  return out;
}

}  // namespace

MinWidthResult FindMinimumWidthOnGraph(const graph::Graph& conflict_graph,
                                       int congestion_lower_bound,
                                       const MinWidthOptions& options) {
  MinWidthResult result;
  result.lower_bound = std::max(1, congestion_lower_bound);

  DetailedRouteResult previous;  // result at width-1 while scanning upward
  bool have_previous = false;
  for (int width = result.lower_bound; width <= options.max_width; ++width) {
    obs::TraceSpan width_span(obs::GlobalTrace(),
                              "width " + std::to_string(width), "sweep");
    DetailedRouteResult attempt =
        options.cube_workers > 0
            ? RouteWidthWithCubes(conflict_graph, width, options)
            : RouteDetailedOnGraph(conflict_graph, width, options.route);
    width_span.AddArg("verdict",
                      obs::JsonValue(sat::ToString(attempt.status)));
    width_span.End();
    if (attempt.status == sat::SolveResult::kUnknown) {
      return result;  // timed out; min_width stays -1
    }
    if (attempt.status == sat::SolveResult::kSat) {
      result.min_width = width;
      result.routable = std::move(attempt);
      if (width == 1) {
        result.proven_optimal = true;
      } else if (have_previous) {
        result.proven_optimal = true;
        result.unroutable = std::move(previous);
      } else {
        // First probe was already SAT; prove width-1 unroutable explicitly.
        DetailedRouteResult proof =
            options.cube_workers > 0
                ? RouteWidthWithCubes(conflict_graph, width - 1, options)
                : RouteDetailedOnGraph(conflict_graph, width - 1,
                                       options.route);
        if (proof.status == sat::SolveResult::kUnsat) {
          result.proven_optimal = true;
          result.unroutable = std::move(proof);
        }
      }
      return result;
    }
    previous = std::move(attempt);  // UNSAT at this width
    have_previous = true;
  }
  return result;
}

MinWidthResult FindMinimumWidth(const fpga::Arch& arch,
                                const route::GlobalRouting& routing,
                                const MinWidthOptions& options) {
  const graph::Graph conflict_graph = BuildConflictGraph(arch, routing);
  return FindMinimumWidthOnGraph(
      conflict_graph, route::PeakCongestion(arch, routing), options);
}

}  // namespace satfr::flow
