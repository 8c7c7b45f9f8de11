#include "oracle.h"

namespace perfbench {

using satfr::graph::Graph;
using satfr::graph::VertexId;
using satfr::sat::SolveResult;

namespace {

std::string CheckColoring(const Graph& graph, const std::vector<int>& tracks,
                          int width) {
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  if (tracks.size() != n) {
    return "answer has " + std::to_string(tracks.size()) + " tracks for " +
           std::to_string(n) + " nets";
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (tracks[v] < 0 || tracks[v] >= width) {
      return "net " + std::to_string(v) + " on track " +
             std::to_string(tracks[v]) + " outside [0," +
             std::to_string(width) + ")";
    }
  }
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    const auto ui = static_cast<std::size_t>(u);
    for (const VertexId v : graph.Neighbors(u)) {
      const auto vi = static_cast<std::size_t>(v);
      if (v > u && tracks[ui] == tracks[vi]) {
        return "conflicting nets " + std::to_string(u) + " and " +
               std::to_string(v) + " share track " +
               std::to_string(tracks[ui]);
      }
    }
  }
  return "";
}

}  // namespace

std::string CheckAnswer(int min_width, const Graph& graph, int width,
                        SolveResult status, const std::vector<int>& tracks) {
  if (status == SolveResult::kUnknown) {
    return "no verdict at W=" + std::to_string(width) +
           " (timeout or cancel)";
  }
  const SolveResult expected =
      width >= min_width ? SolveResult::kSat : SolveResult::kUnsat;
  if (status != expected) {
    return std::string("verdict ") + satfr::sat::ToString(status) + " at W=" +
           std::to_string(width) + " but W*=" + std::to_string(min_width);
  }
  if (status == SolveResult::kSat) {
    return CheckColoring(graph, tracks, width);
  }
  return "";
}

}  // namespace perfbench
