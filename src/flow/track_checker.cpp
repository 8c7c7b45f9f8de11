#include "flow/track_checker.h"

#include <map>

namespace satfr::flow {

bool ValidateTrackAssignment(const fpga::Arch& arch,
                             const route::GlobalRouting& routing,
                             const std::vector<int>& tracks, int num_tracks,
                             std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error) *error = message;
    return false;
  };
  if (tracks.size() != routing.NumTwoPinNets()) {
    return fail("track assignment size mismatch");
  }
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    if (tracks[i] < 0 || tracks[i] >= num_tracks) {
      return fail("2-pin net " + std::to_string(i) +
                  " has an out-of-range track " + std::to_string(tracks[i]));
    }
  }
  // (segment, track) -> owning multi-pin net.
  std::map<std::pair<fpga::SegmentIndex, int>, netlist::NetId> owner;
  for (std::size_t i = 0; i < routing.routes.size(); ++i) {
    const netlist::NetId parent = routing.two_pin_nets[i].parent;
    for (const fpga::SegmentIndex seg : routing.routes[i]) {
      const auto key = std::make_pair(seg, tracks[i]);
      const auto [it, inserted] = owner.emplace(key, parent);
      if (!inserted && it->second != parent) {
        return fail("track " + std::to_string(tracks[i]) + " of segment " +
                    arch.SegmentName(seg) +
                    " is shared by different multi-pin nets");
      }
    }
  }
  return true;
}

bool ValidateColoring(const graph::Graph& conflict_graph,
                      const std::vector<int>& tracks, int num_tracks,
                      std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error) *error = message;
    return false;
  };
  const int nets = conflict_graph.num_vertices();
  if (tracks.size() != static_cast<std::size_t>(nets)) {
    return fail(std::to_string(tracks.size()) + " tracks for " +
                std::to_string(nets) + " nets");
  }
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    if (tracks[i] < 0 || tracks[i] >= num_tracks) {
      return fail("2-pin net " + std::to_string(i) +
                  " has an out-of-range track " + std::to_string(tracks[i]));
    }
  }
  if (!conflict_graph.IsProperColoring(tracks)) {
    return fail("two conflicting 2-pin nets share a track");
  }
  return true;
}

}  // namespace satfr::flow
