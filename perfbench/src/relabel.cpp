#include "relabel.h"

#include <utility>

#include "common/rng.h"

namespace perfbench {

using satfr::graph::Graph;
using satfr::graph::VertexId;

Relabeling RelabelGraph(const Graph& original, std::uint64_t seed) {
  satfr::Rng rng(seed);
  const std::vector<std::uint32_t> order =
      rng.Permutation(static_cast<std::uint32_t>(original.num_vertices()));
  Relabeling out;
  out.permutation.assign(order.begin(), order.end());
  out.graph = Graph(original.num_vertices());
  std::vector<std::pair<VertexId, VertexId>> edges = original.Edges();
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.NextBelow(i)]);
  }
  for (const auto& [u, v] : edges) {
    const VertexId a = out.permutation[static_cast<std::size_t>(u)];
    const VertexId b = out.permutation[static_cast<std::size_t>(v)];
    if (rng.NextBool(0.5)) {
      out.graph.AddEdge(a, b);
    } else {
      out.graph.AddEdge(b, a);
    }
  }
  return out;
}

std::vector<int> MapBack(const std::vector<VertexId>& permutation,
                         const std::vector<int>& relabeled_tracks) {
  std::vector<int> tracks(permutation.size(), -1);
  for (std::size_t v = 0; v < permutation.size(); ++v) {
    const auto target = static_cast<std::size_t>(permutation[v]);
    if (target < relabeled_tracks.size()) tracks[v] = relabeled_tracks[target];
  }
  return tracks;
}

}  // namespace perfbench
