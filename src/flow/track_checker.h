// Validity checker for decoded detailed routings.
//
// A detailed routing is a track index per 2-pin net. It is valid for width W
// iff every track is in [0, W) and no channel segment carries two 2-pin
// nets of different multi-pin nets on the same track. This is the ground
// truth the SAT pipeline is checked against.
#pragma once

#include <string>
#include <vector>

#include "fpga/arch.h"
#include "graph/graph.h"
#include "route/global_routing.h"

namespace satfr::flow {

bool ValidateTrackAssignment(const fpga::Arch& arch,
                             const route::GlobalRouting& routing,
                             const std::vector<int>& tracks, int num_tracks,
                             std::string* error = nullptr);

/// The same check on the conflict graph alone, O(V + E): one track per
/// vertex, each in [0, num_tracks), no edge inside one track. This is what
/// every SAT answer of flow::RouteDetailedOnGraph passes.
bool ValidateColoring(const graph::Graph& conflict_graph,
                      const std::vector<int>& tracks, int num_tracks,
                      std::string* error = nullptr);

}  // namespace satfr::flow
