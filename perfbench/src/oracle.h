// The answer oracle. Every answer the benchmark receives — a prove cell, a
// fresh route request, a cache hit, a session solve — is held to the
// circuit's known W* and, when SAT, checked as a coloring of the graph the
// question was asked about. A wrong answer fails the run.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"
#include "sat/solver.h"

namespace perfbench {

/// Empty when the answer is right for a graph whose chromatic number is
/// `min_width`; otherwise says what is wrong. kUnknown is always wrong. A
/// SAT answer must give every net a track in [0, width) with no edge
/// inside one track.
std::string CheckAnswer(int min_width, const satfr::graph::Graph& graph,
                        int width, satfr::sat::SolveResult status,
                        const std::vector<int>& tracks);

}  // namespace perfbench
