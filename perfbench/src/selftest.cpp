// The benchmark's checks on itself, run before every measurement (and by
// `perfbench --selftest`): a relabeling preserves the graph and W*, the
// oracle catches corrupted answers, and percentiles are ordered.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "encode/registry.h"
#include "flow/min_width.h"
#include "flow/track_checker.h"
#include "oracle.h"
#include "relabel.h"
#include "workloads.h"

namespace perfbench {
namespace {

using satfr::graph::Graph;
using satfr::graph::VertexId;
using satfr::sat::SolveResult;

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what.c_str());
  }
}

std::vector<std::size_t> DegreeMultiset(const Graph& g) {
  std::vector<std::size_t> degrees;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    degrees.push_back(g.Degree(v));
  }
  std::sort(degrees.begin(), degrees.end());
  return degrees;
}

void CheckPercentiles() {
  const std::vector<double> sample = {7, 1, 9, 3, 100, 5, 2, 8, 4, 6,
                                      11, 13, 12, 10, 14, 15, 16, 17, 18, 19};
  const double p50 = Percentile(sample, 0.5);
  const double p99 = Percentile(sample, 0.99);
  const double max = Percentile(sample, 1.0);
  Expect(p50 <= p99 && p99 <= max, "p50 <= p99 <= max");
  Expect(p50 == 10.0, "nearest-rank p50 of 1..19,100 is 10");
  Expect(max == 100.0, "p100 is the maximum");
  Expect(Percentile({}, 0.5) == 0.0, "empty sample reads 0");
}

void CheckRelabelAndOracle() {
  const RoutedCircuit routed = RouteCircuit(GenerateCircuit("alu2"));
  const Graph& original = routed.conflict;
  const int min_width = routed.circuit.known.min_width;
  const Relabeling relabeled = RelabelGraph(original, 12345);
  const Graph& g = relabeled.graph;

  Expect(g.num_vertices() == original.num_vertices(), "vertex count kept");
  Expect(g.num_edges() == original.num_edges(), "edge count kept");
  Expect(DegreeMultiset(g) == DegreeMultiset(original), "degrees kept");
  const auto image = [&relabeled](VertexId v) {
    return relabeled.permutation[static_cast<std::size_t>(v)];
  };
  bool edges_mapped = true;
  for (const auto& [u, v] : original.Edges()) {
    edges_mapped = edges_mapped && g.HasEdge(image(u), image(v));
  }
  Expect(edges_mapped, "every edge maps through the permutation");
  Expect(RelabelGraph(original, 12345).permutation == relabeled.permutation,
         "same seed, same relabeling");
  Expect(RelabelGraph(original, 12346).permutation != relabeled.permutation,
         "another seed, another relabeling");

  satfr::flow::MinWidthOptions options;
  options.route.encoding = satfr::encode::GetEncoding("ITE-linear-2+muldirect");
  options.route.heuristic = satfr::symmetry::Heuristic::kS1;
  const satfr::flow::MinWidthResult mw = satfr::flow::FindMinimumWidthOnGraph(
      g, routed.peak_congestion, options);
  Expect(mw.min_width == min_width, "relabeling keeps W*");
  Expect(mw.proven_optimal &&
             mw.unroutable.status == SolveResult::kUnsat,
         "relabeled W*-1 proven unroutable");
  const std::vector<int>& tracks = mw.routable.tracks;
  Expect(satfr::flow::ValidateTrackAssignment(
             routed.circuit.arch, routed.routing,
             MapBack(relabeled.permutation, tracks), min_width),
         "mapped-back tracks pass the track checker");

  // The oracle accepts the right answers ...
  Expect(CheckAnswer(min_width, g, min_width, SolveResult::kSat, tracks)
             .empty(),
         "oracle accepts a proper W* coloring");
  Expect(CheckAnswer(min_width, g, min_width - 1, SolveResult::kUnsat, {})
             .empty(),
         "oracle accepts UNSAT at W*-1");
  // ... and catches every corruption.
  const auto [u, v] = g.Edges().front();
  std::vector<int> clash = tracks;
  clash[static_cast<std::size_t>(u)] = clash[static_cast<std::size_t>(v)];
  Expect(!CheckAnswer(min_width, g, min_width, SolveResult::kSat, clash)
              .empty(),
         "oracle catches two conflicting nets on one track");
  Expect(!satfr::flow::ValidateTrackAssignment(
             routed.circuit.arch, routed.routing,
             MapBack(relabeled.permutation, clash), min_width),
         "track checker catches the same corruption");
  std::vector<int> wide = tracks;
  wide[0] = min_width;
  Expect(!CheckAnswer(min_width, g, min_width, SolveResult::kSat, wide)
              .empty(),
         "oracle catches a track outside [0, W)");
  Expect(!CheckAnswer(min_width, g, min_width, SolveResult::kUnsat, {})
              .empty(),
         "oracle catches UNSAT at W*");
  Expect(!CheckAnswer(min_width, g, min_width - 1, SolveResult::kSat, tracks)
              .empty(),
         "oracle catches SAT at W*-1");
  Expect(!CheckAnswer(min_width, g, min_width, SolveResult::kUnknown, {})
              .empty(),
         "oracle counts a missing verdict as wrong");
}

}  // namespace

int RunSelfTest() {
  failures = 0;
  CheckPercentiles();
  CheckRelabelAndOracle();
  return failures;
}

}  // namespace perfbench
