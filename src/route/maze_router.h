// Point-to-point maze routing on the device graph.
//
// A* over switch nodes with per-segment costs supplied by the caller (the
// negotiated-congestion global router varies these between iterations).
// Costs must be >= 1 so the Manhattan-distance heuristic stays admissible
// and the search returns a minimum-cost path.
//
// MazeSearch is the one implementation. The global router runs thousands
// of searches per call, so a MazeSearch is built once per device and
// reused: its node-sized buffers are stamped with a per-search generation
// instead of being refilled, node coordinates are precomputed for the
// heuristic, and the cost is a template parameter so the caller's cost
// inlines into the inner loop. The open list is a binary heap on a reused
// vector driven exactly as std::priority_queue drives it, so ties break
// the same way and every path is the one a fresh priority_queue yields.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <vector>

#include "fpga/device_graph.h"

namespace satfr::route {

class MazeSearch {
 public:
  explicit MazeSearch(const fpga::DeviceGraph& device);

  /// Minimum-cost path from `from` to `to`, stored in `*path` as the ordered
  /// list of traversed segments (`from == to` yields an empty path). Returns
  /// false, leaving `*path` empty, only if from/to are disconnected (never on
  /// our grid). `segment_cost(seg)` must be >= 1.
  template <typename SegmentCost>
  bool Route(fpga::NodeId from, fpga::NodeId to,
             const SegmentCost& segment_cost,
             std::vector<fpga::SegmentIndex>* path);

 private:
  struct Entry {
    double priority;  // g + h
    double cost;      // g
    fpga::NodeId node;
    bool operator>(const Entry& other) const {
      return priority > other.priority;
    }
  };

  int Distance(fpga::NodeId a, fpga::NodeId b) const {
    const fpga::Coord ca = coords_[static_cast<std::size_t>(a)];
    const fpga::Coord cb = coords_[static_cast<std::size_t>(b)];
    return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
  }

  const fpga::DeviceGraph& device_;
  std::vector<fpga::Coord> coords_;
  // A node's best_cost_/came_from_/came_via_ are valid iff its stamp equals
  // the current search's generation.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
  std::vector<double> best_cost_;
  std::vector<fpga::NodeId> came_from_;
  std::vector<fpga::SegmentIndex> came_via_;
  std::vector<Entry> open_;
};

template <typename SegmentCost>
bool MazeSearch::Route(fpga::NodeId from, fpga::NodeId to,
                       const SegmentCost& segment_cost,
                       std::vector<fpga::SegmentIndex>* path) {
  using fpga::NodeId;
  path->clear();
  if (from == to) return true;

  if (++generation_ == 0) {  // wrapped: no stale stamp may match again
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    generation_ = 1;
  }
  const std::uint32_t gen = generation_;
  const auto greater = std::greater<Entry>();
  open_.clear();
  stamp_[static_cast<std::size_t>(from)] = gen;
  best_cost_[static_cast<std::size_t>(from)] = 0.0;
  open_.push_back(Entry{static_cast<double>(Distance(from, to)), 0.0, from});

  while (!open_.empty()) {
    std::pop_heap(open_.begin(), open_.end(), greater);
    const Entry current = open_.back();
    open_.pop_back();
    if (current.node == to) break;
    if (current.cost > best_cost_[static_cast<std::size_t>(current.node)]) {
      continue;  // stale entry
    }
    for (const auto& hop : device_.Hops(current.node)) {
      const double hop_cost = segment_cost(hop.via);
      assert(hop_cost >= 1.0 && "costs below 1 break the A* heuristic");
      const double next_cost = current.cost + hop_cost;
      const std::size_t next = static_cast<std::size_t>(hop.to);
      if (stamp_[next] != gen || next_cost < best_cost_[next]) {
        stamp_[next] = gen;
        best_cost_[next] = next_cost;
        came_from_[next] = current.node;
        came_via_[next] = hop.via;
        open_.push_back(Entry{
            next_cost + static_cast<double>(Distance(hop.to, to)),
            next_cost, hop.to});
        std::push_heap(open_.begin(), open_.end(), greater);
      }
    }
  }

  if (stamp_[static_cast<std::size_t>(to)] != gen) return false;
  for (NodeId node = to; node != from;
       node = came_from_[static_cast<std::size_t>(node)]) {
    path->push_back(came_via_[static_cast<std::size_t>(node)]);
  }
  std::reverse(path->begin(), path->end());
  return true;
}

using SegmentCostFn = std::function<double(fpga::SegmentIndex)>;

/// One-off search through a fresh MazeSearch: minimum-cost path from `from`
/// to `to` as the ordered list of traversed segments; std::nullopt only if
/// from/to are disconnected. `from == to` yields an empty path.
std::optional<std::vector<fpga::SegmentIndex>> FindPath(
    const fpga::DeviceGraph& device, fpga::NodeId from, fpga::NodeId to,
    const SegmentCostFn& segment_cost);

/// Shortest path with unit costs.
std::optional<std::vector<fpga::SegmentIndex>> FindShortestPath(
    const fpga::DeviceGraph& device, fpga::NodeId from, fpga::NodeId to);

}  // namespace satfr::route
