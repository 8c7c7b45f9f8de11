// Negotiated-congestion global router (PathFinder-style).
//
// Stands in for the SEGA-1.1 global routings the paper builds on: given a
// placed netlist it produces one fixed global route per 2-pin net while
// minimizing peak channel congestion. The router first routes everything on
// shortest paths, then repeatedly tightens a capacity target and negotiates
// (rip-up & reroute with growing present-congestion penalties and
// accumulated history costs) until the target becomes infeasible; the best
// feasible routing is returned. Fully deterministic.
//
// A cut bound (CongestionLowerBound) proves some capacity targets out of
// reach before any negotiation; the router never tries those, since their
// negotiation could only fail and its routing would be thrown away. The
// result is the routing the full descent would return, bit for bit.
// Each call emits one "route.global" span on obs::GlobalTrace().
#pragma once

#include <vector>

#include "fpga/device_graph.h"
#include "netlist/netlist.h"
#include "netlist/placement.h"
#include "route/global_routing.h"

namespace satfr::route {

struct GlobalRouterOptions {
  /// How multi-pin nets split into 2-pin nets (§2 leaves this open; star is
  /// the default and what the benches calibrate against).
  Decomposition decomposition = Decomposition::kStar;
  /// Rip-up-and-reroute sweeps attempted per capacity target.
  int negotiation_rounds = 25;
  /// Present-congestion penalty: starting weight and per-round growth.
  double present_factor_initial = 0.6;
  double present_factor_growth = 1.5;
  /// Weight of accumulated history costs.
  double history_factor = 0.35;
};

/// Lower bound on the peak distinct-parent congestion (PeakCongestion) of
/// every global routing of `two_pin_nets`. For each node rectangle anchored
/// at a grid corner, every parent with a 2-pin net that has one endpoint
/// inside and one outside must use one of the rectangle's boundary segments
/// (sides on the grid edge have none), so some boundary segment carries at
/// least ceil(crossing parents / boundary segments) parents. Returns the
/// largest such quotient over the 4 * nodes_per_side^2 corner rectangles
/// (0 when no net crosses any of them).
int CongestionLowerBound(const fpga::Arch& arch,
                         const netlist::Placement& placement,
                         const std::vector<TwoPinNet>& two_pin_nets);

GlobalRouting RouteGlobally(const fpga::DeviceGraph& device,
                            const netlist::Netlist& nets,
                            const netlist::Placement& placement,
                            const GlobalRouterOptions& options = {});

}  // namespace satfr::route
