// Seeded vertex relabelings of a conflict graph.
//
// A relabeling renames vertices without changing the graph, so every
// colorability fact (and hence W*) is preserved, while the encoder's
// variable order, the symmetry heuristic's tie-breaks and the solver's
// search all change. Relabelings turn one circuit into a family of
// instances with a known answer, which is what exposes CDCL's heavy tail.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

/// permutation[old_vertex] = new_vertex.
struct Relabeling {
  std::vector<satfr::graph::VertexId> permutation;
  satfr::graph::Graph graph;
};

/// Draws a uniform vertex permutation from `seed` and applies it. The edge
/// insertion order is shuffled too, so adjacency lists carry no trace of
/// the original numbering.
Relabeling RelabelGraph(const satfr::graph::Graph& original,
                        std::uint64_t seed);

/// Maps an answer on the relabeled graph back to the original numbering:
/// result[v] = relabeled_tracks[permutation[v]].
std::vector<int> MapBack(const std::vector<satfr::graph::VertexId>& permutation,
                         const std::vector<int>& relabeled_tracks);

}  // namespace perfbench
