// Symmetry-breaking heuristics for K-coloring (§5 of the paper).
//
// Color classes of any proper K-coloring can be renamed so that an arbitrary
// ordered sequence of K-1 vertices v_1..v_{K-1} satisfies color(v_i) < i
// (Van Gelder 2007): walk the sequence and give each newly seen color class
// the smallest unused index. Restricting the formula this way therefore
// preserves K-colorability while removing color-permutation symmetry.
//
// Two vertex-selection heuristics are implemented:
//  * b1 (Van Gelder): the maximum-degree vertex first, then up to K-2 of its
//    neighbors in descending degree order, ties broken by the sum of the
//    neighbors' degrees.
//  * s1 (this paper): the K-1 highest-degree vertices overall, in descending
//    degree order, same tie-break.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace satfr::symmetry {

enum class Heuristic { kNone, kB1, kS1 };

const char* ToString(Heuristic heuristic);

/// Looks a heuristic up by name: "none"/"-", "b1", "s1".
std::optional<Heuristic> FindHeuristic(std::string_view name);

/// Like FindHeuristic but aborts with a clear message on an unknown name.
Heuristic HeuristicFromName(const std::string& name);

/// Ordered vertex sequence v_1..v_m (m <= K-1) to restrict. Empty for
/// kNone, for K <= 1, or for an empty graph. All returned vertices are
/// distinct; deterministic (final ties broken by vertex id).
std::vector<graph::VertexId> SymmetrySequence(const graph::Graph& g,
                                              int num_colors,
                                              Heuristic heuristic);

/// Reference check used by tests: can `colors` be renamed so that the
/// sequence restriction color(v_i) < i holds? True for every proper coloring
/// by Van Gelder's argument; exercised as an executable proof.
bool ColoringRespectsSequenceUpToRenaming(
    const std::vector<int>& colors, int num_colors,
    const std::vector<graph::VertexId>& sequence);

}  // namespace satfr::symmetry
