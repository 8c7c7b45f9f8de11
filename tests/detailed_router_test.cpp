// End-to-end detailed-routing tests: netlist -> global route -> SAT ->
// validated track assignment, across encodings and solver presets.
#include <gtest/gtest.h>

#include <string>

#include "encode/registry.h"
#include "flow/conflict_graph.h"
#include "graph/coloring_bounds.h"
#include "flow/detailed_router.h"
#include "flow/min_width.h"
#include "flow/track_checker.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"

namespace satfr::flow {
namespace {

using fpga::Arch;
using fpga::DeviceGraph;

struct RoutedBenchmark {
  netlist::McncBenchmark bench;
  Arch arch;
  route::GlobalRouting routing;
  int peak = 0;

  explicit RoutedBenchmark(const std::string& name)
      : bench(netlist::GenerateMcncBenchmark(name)),
        arch(bench.params.grid_size) {
    const DeviceGraph device(arch);
    routing = route::RouteGlobally(device, bench.netlist, bench.placement);
    peak = route::PeakCongestion(arch, routing);
  }
};

const RoutedBenchmark& Tiny() {
  static const RoutedBenchmark* const kTiny = new RoutedBenchmark("tiny");
  return *kTiny;
}

const RoutedBenchmark& NineSymml() {
  static const RoutedBenchmark* const kBench =
      new RoutedBenchmark("9symml");
  return *kBench;
}

TEST(DetailedRouterTest, SatAtGenerousWidthAndTracksValidate) {
  const RoutedBenchmark& rb = Tiny();
  const graph::Graph conflict = BuildConflictGraph(rb.arch, rb.routing);
  const int width = static_cast<int>(conflict.MaxDegree()) + 1;
  DetailedRouteOptions options;
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, width, options);
  ASSERT_EQ(result.status, sat::SolveResult::kSat);
  std::string error;
  EXPECT_TRUE(ValidateTrackAssignment(rb.arch, rb.routing, result.tracks,
                                      width, &error))
      << error;
  EXPECT_GT(result.cnf_vars, 0);
  EXPECT_GT(result.cnf_clauses, 0u);
  EXPECT_EQ(result.conflict_vertices, conflict.num_vertices());
  EXPECT_EQ(result.conflict_edges, conflict.num_edges());
}

TEST(DetailedRouterTest, UnsatBelowCongestionBound) {
  const RoutedBenchmark& rb = Tiny();
  ASSERT_GE(rb.peak, 2) << "fixture must have congestion to be meaningful";
  DetailedRouteOptions options;
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, rb.peak - 1, options);
  EXPECT_EQ(result.status, sat::SolveResult::kUnsat);
  EXPECT_TRUE(result.tracks.empty());
}

TEST(DetailedRouterTest, TimeBreakdownIsPopulated) {
  const RoutedBenchmark& rb = Tiny();
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, rb.peak + 2);
  EXPECT_GE(result.encode_seconds, 0.0);
  EXPECT_GE(result.solve_seconds, 0.0);
  EXPECT_NEAR(result.TotalSeconds(),
              result.encode_seconds + result.solve_seconds, 1e-12);
}

// Every encoding and both heuristics must agree on SAT/UNSAT for the same
// instance — the cross-encoding equisatisfiability invariant of DESIGN.md.
class EncodingAgreementTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EncodingAgreementTest, AgreesOnRoutableAndUnroutable) {
  const RoutedBenchmark& rb = NineSymml();
  const graph::Graph conflict = BuildConflictGraph(rb.arch, rb.routing);
  // DSATUR gives a width that is guaranteed routable; peak congestion - 1
  // is guaranteed unroutable (clique bound).
  const int routable_width =
      graph::NumColorsUsed(graph::DsaturColoring(conflict));
  DetailedRouteOptions options;
  options.encoding = encode::GetEncoding(GetParam());
  options.timeout_seconds = 60.0;
  for (const symmetry::Heuristic h :
       {symmetry::Heuristic::kNone, symmetry::Heuristic::kB1,
        symmetry::Heuristic::kS1}) {
    options.heuristic = h;
    const DetailedRouteResult routable =
        RouteDetailedOnGraph(conflict, routable_width, options);
    EXPECT_EQ(routable.status, sat::SolveResult::kSat)
        << GetParam() << "/" << symmetry::ToString(h);
    const DetailedRouteResult unroutable =
        RouteDetailedOnGraph(conflict, rb.peak - 1, options);
    EXPECT_EQ(unroutable.status, sat::SolveResult::kUnsat)
        << GetParam() << "/" << symmetry::ToString(h);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, EncodingAgreementTest,
    ::testing::ValuesIn(encode::AllEncodingNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

TEST(DetailedRouterTest, BothSolverPresetsAgree) {
  const RoutedBenchmark& rb = Tiny();
  const graph::Graph conflict = BuildConflictGraph(rb.arch, rb.routing);
  const int routable_width =
      graph::NumColorsUsed(graph::DsaturColoring(conflict));
  for (const bool siege : {true, false}) {
    DetailedRouteOptions options;
    options.solver = siege ? sat::SolverOptions::SiegeLike()
                           : sat::SolverOptions::MiniSatLike();
    const DetailedRouteResult sat_result =
        RouteDetailed(rb.arch, rb.routing, routable_width, options);
    EXPECT_EQ(sat_result.status, sat::SolveResult::kSat);
    if (rb.peak >= 2) {
      const DetailedRouteResult unsat_result =
          RouteDetailed(rb.arch, rb.routing, rb.peak - 1, options);
      EXPECT_EQ(unsat_result.status, sat::SolveResult::kUnsat);
    }
  }
}

// The formula is teed into a collected Cnf only for selfcheck and proof
// checking; the solver must see the same stream, and so reach the same
// verdict on the same formula size, as on the plain streamed path.
TEST(DetailedRouterTest, TeedSelfcheckAndProofPathsMatchPlainPath) {
  const RoutedBenchmark& rb = Tiny();
  ASSERT_GE(rb.peak, 2);
  const graph::Graph conflict = BuildConflictGraph(rb.arch, rb.routing);
  const int routable_width =
      graph::NumColorsUsed(graph::DsaturColoring(conflict));
  for (const std::string& name : encode::EvaluatedEncodingNames()) {
    for (const symmetry::Heuristic h :
         {symmetry::Heuristic::kNone, symmetry::Heuristic::kB1,
          symmetry::Heuristic::kS1}) {
      for (const int width : {rb.peak - 1, routable_width}) {
        const std::string where = name + "/" + symmetry::ToString(h) +
                                  " W=" + std::to_string(width);
        DetailedRouteOptions options;
        options.encoding = encode::GetEncoding(name);
        options.heuristic = h;
        const DetailedRouteResult plain =
            RouteDetailed(rb.arch, rb.routing, width, options);
        ASSERT_NE(plain.status, sat::SolveResult::kUnknown) << where;
        EXPECT_EQ(plain.status, width == rb.peak - 1
                                    ? sat::SolveResult::kUnsat
                                    : sat::SolveResult::kSat)
            << where;
        EXPECT_EQ(plain.encode_stats.TotalEmitted(), plain.cnf_clauses);
        EXPECT_FALSE(plain.proof_verified) << where;
        EXPECT_EQ(plain.proof_clauses, 0u) << where;

        DetailedRouteOptions selfcheck = options;
        selfcheck.selfcheck = true;
        DetailedRouteOptions proof = options;
        proof.verify_unsat_proof = true;
        for (const DetailedRouteOptions& teed : {selfcheck, proof}) {
          const DetailedRouteResult result =
              RouteDetailed(rb.arch, rb.routing, width, teed);
          EXPECT_EQ(result.status, plain.status) << where;
          EXPECT_EQ(result.cnf_vars, plain.cnf_vars) << where;
          EXPECT_EQ(result.cnf_clauses, plain.cnf_clauses) << where;
          EXPECT_TRUE(result.error.empty()) << where << ": " << result.error;
          if (teed.verify_unsat_proof &&
              result.status == sat::SolveResult::kUnsat) {
            EXPECT_TRUE(result.proof_verified) << where;
          }
        }
      }
    }
  }
}

// Cube mode is a selectable path of the same runner: same verdicts as the
// monolithic solver around W*, and its SAT tracks pass the track checker.
TEST(DetailedRouterTest, CubePoolAgreesWithMonolithicAroundMinWidth) {
  for (const char* name : {"alu2", "too_large", "C880", "apex7"}) {
    const RoutedBenchmark rb(name);
    const graph::Graph conflict = BuildConflictGraph(rb.arch, rb.routing);
    DetailedRouteOptions options;
    options.encoding = encode::GetEncoding("ITE-linear-2+muldirect");
    options.heuristic = symmetry::Heuristic::kS1;
    MinWidthOptions search;
    search.route = options;
    const int min_width =
        FindMinimumWidthOnGraph(conflict, rb.peak, search).min_width;
    ASSERT_GT(min_width, 1) << name;
    DetailedRouteOptions cube = options;
    cube.cube_workers = 2;
    for (const int width : {min_width - 1, min_width}) {
      const DetailedRouteResult mono =
          RouteDetailedOnGraph(conflict, width, options);
      const DetailedRouteResult pool =
          RouteDetailedOnGraph(conflict, width, cube);
      EXPECT_EQ(mono.status, width == min_width ? sat::SolveResult::kSat
                                                : sat::SolveResult::kUnsat)
          << name << " W=" << width;
      EXPECT_EQ(pool.status, mono.status) << name << " W=" << width;
      EXPECT_TRUE(pool.error.empty()) << pool.error;
      EXPECT_EQ(pool.cnf_vars, mono.cnf_vars) << name;
      EXPECT_EQ(pool.cnf_clauses, mono.cnf_clauses) << name;
      if (pool.status == sat::SolveResult::kSat) {
        std::string error;
        EXPECT_TRUE(ValidateTrackAssignment(rb.arch, rb.routing, pool.tracks,
                                            width, &error))
            << name << ": " << error;
      }
    }
  }
}

TEST(DetailedRouterTest, CubePathRejectsSelfcheckAndProof) {
  const RoutedBenchmark& rb = Tiny();
  DetailedRouteOptions options;
  options.cube_workers = 2;
  options.selfcheck = true;
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, rb.peak + 1, options);
  EXPECT_EQ(result.status, sat::SolveResult::kUnknown);
  EXPECT_FALSE(result.error.empty());
  EXPECT_TRUE(result.tracks.empty());
}

TEST(DetailedRouterTest, ZeroTimeoutMeansUnlimited) {
  const RoutedBenchmark& rb = Tiny();
  DetailedRouteOptions options;
  options.timeout_seconds = 0.0;
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, rb.peak + 1, options);
  EXPECT_NE(result.status, sat::SolveResult::kUnknown);
}

}  // namespace
}  // namespace satfr::flow
