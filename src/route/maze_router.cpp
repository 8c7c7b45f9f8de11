#include "route/maze_router.h"

namespace satfr::route {

MazeSearch::MazeSearch(const fpga::DeviceGraph& device)
    : device_(device) {
  const fpga::Arch& arch = device.arch();
  const std::size_t n = static_cast<std::size_t>(arch.num_nodes());
  coords_.reserve(n);
  for (fpga::NodeId node = 0; node < arch.num_nodes(); ++node) {
    coords_.push_back(arch.NodeCoord(node));
  }
  stamp_.assign(n, 0u);
  best_cost_.resize(n);
  came_from_.resize(n);
  came_via_.resize(n);
}

std::optional<std::vector<fpga::SegmentIndex>> FindPath(
    const fpga::DeviceGraph& device, fpga::NodeId from, fpga::NodeId to,
    const SegmentCostFn& segment_cost) {
  std::vector<fpga::SegmentIndex> path;
  MazeSearch search(device);
  if (!search.Route(from, to, segment_cost, &path)) return std::nullopt;
  return path;
}

std::optional<std::vector<fpga::SegmentIndex>> FindShortestPath(
    const fpga::DeviceGraph& device, fpga::NodeId from, fpga::NodeId to) {
  return FindPath(device, from, to,
                  [](fpga::SegmentIndex) { return 1.0; });
}

}  // namespace satfr::route
