#include "route/global_router.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "route/maze_router.h"

namespace satfr::route {
namespace {

using fpga::NodeId;
using fpga::SegmentIndex;
using netlist::NetId;

// Tracks, per segment, how many routes of each parent net cross it, so that
// distinct-parent usage is maintainable under rip-up. Counts are one flat
// parent-major table: a search for one parent reads one contiguous row.
class UsageTracker {
 public:
  UsageTracker(int num_segments, NetId num_parents)
      : num_segments_(static_cast<std::size_t>(num_segments)),
        distinct_(num_segments_, 0),
        counts_(num_segments_ * static_cast<std::size_t>(num_parents), 0) {}

  void Add(const std::vector<SegmentIndex>& route, NetId parent) {
    for (const SegmentIndex seg : route) {
      if (counts_[Index(seg, parent)]++ == 0) {
        ++distinct_[static_cast<std::size_t>(seg)];
      }
    }
  }

  void Remove(const std::vector<SegmentIndex>& route, NetId parent) {
    for (const SegmentIndex seg : route) {
      int& count = counts_[Index(seg, parent)];
      assert(count > 0);
      if (--count == 0) --distinct_[static_cast<std::size_t>(seg)];
    }
  }

  /// Distinct parents using `seg`.
  int Usage(SegmentIndex seg) const {
    return distinct_[static_cast<std::size_t>(seg)];
  }

  /// Distinct parents other than `parent` using `seg`.
  int UsageExcluding(SegmentIndex seg, NetId parent) const {
    return distinct_[static_cast<std::size_t>(seg)] -
           (counts_[Index(seg, parent)] > 0 ? 1 : 0);
  }

  int Peak() const {
    int peak = 0;
    for (const int used : distinct_) peak = std::max(peak, used);
    return peak;
  }

  /// Total overuse above `capacity` across all segments.
  int TotalOveruse(int capacity) const {
    int total = 0;
    for (const int used : distinct_) total += std::max(0, used - capacity);
    return total;
  }

 private:
  std::size_t Index(SegmentIndex seg, NetId parent) const {
    return static_cast<std::size_t>(parent) * num_segments_ +
           static_cast<std::size_t>(seg);
  }

  std::size_t num_segments_;
  std::vector<int> distinct_;
  std::vector<int> counts_;
};

NetId NumParents(const std::vector<TwoPinNet>& two_pin_nets) {
  NetId num_parents = 0;
  for (const TwoPinNet& net : two_pin_nets) {
    num_parents = std::max(num_parents, net.parent + 1);
  }
  return num_parents;
}

}  // namespace

int CongestionLowerBound(const fpga::Arch& arch,
                         const netlist::Placement& placement,
                         const std::vector<TwoPinNet>& two_pin_nets) {
  const int side = arch.nodes_per_side();
  struct Ends {
    fpga::Coord source;
    fpga::Coord sink;
  };
  std::vector<Ends> ends;
  ends.reserve(two_pin_nets.size());
  for (const TwoPinNet& net : two_pin_nets) {
    ends.push_back(
        {placement.LocationOf(net.source), placement.LocationOf(net.sink)});
  }
  // Stamp of the last rectangle that counted each parent.
  std::vector<int> counted_in(
      static_cast<std::size_t>(NumParents(two_pin_nets)), -1);
  int rectangle = 0;
  int bound = 0;
  // Corner (flip_x, flip_y) mirrors coordinates so that every rectangle is
  // [0, a] x [0, b]: its boundary is the column of b + 1 horizontal segments
  // leaving x = a (none when a is the far edge) and the row of a + 1
  // vertical segments leaving y = b.
  for (const bool flip_x : {false, true}) {
    for (const bool flip_y : {false, true}) {
      const auto inside = [&](fpga::Coord c, int a, int b) {
        return (flip_x ? side - 1 - c.x : c.x) <= a &&
               (flip_y ? side - 1 - c.y : c.y) <= b;
      };
      for (int a = 0; a < side; ++a) {
        for (int b = 0; b < side; ++b, ++rectangle) {
          const int boundary =
              (a < side - 1 ? b + 1 : 0) + (b < side - 1 ? a + 1 : 0);
          if (boundary == 0) continue;
          int crossing = 0;
          for (std::size_t i = 0; i < ends.size(); ++i) {
            if (inside(ends[i].source, a, b) == inside(ends[i].sink, a, b)) {
              continue;
            }
            const NetId parent = two_pin_nets[i].parent;
            int& stamp = counted_in[static_cast<std::size_t>(parent)];
            if (stamp == rectangle) continue;
            stamp = rectangle;
            ++crossing;
          }
          bound = std::max(bound, (crossing + boundary - 1) / boundary);
        }
      }
    }
  }
  return bound;
}

GlobalRouting RouteGlobally(const fpga::DeviceGraph& device,
                            const netlist::Netlist& nets,
                            const netlist::Placement& placement,
                            const GlobalRouterOptions& options) {
  obs::TraceSpan span(obs::GlobalTrace(), "route.global", "route");
  const fpga::Arch& arch = device.arch();
  GlobalRouting routing;
  routing.two_pin_nets = options.decomposition == Decomposition::kChain
                             ? DecomposeToTwoPinChain(nets, placement)
                             : DecomposeToTwoPin(nets);
  const std::size_t num_routes = routing.two_pin_nets.size();
  routing.routes.resize(num_routes);

  // Endpoint switch nodes per 2-pin net.
  std::vector<NodeId> from(num_routes);
  std::vector<NodeId> to(num_routes);
  for (std::size_t i = 0; i < num_routes; ++i) {
    const TwoPinNet& net = routing.two_pin_nets[i];
    const fpga::Coord s = placement.LocationOf(net.source);
    const fpga::Coord t = placement.LocationOf(net.sink);
    from[i] = arch.BlockAccessNode(s.x, s.y);
    to[i] = arch.BlockAccessNode(t.x, t.y);
  }

  // Long nets first: they have the fewest detour options.
  std::vector<std::size_t> order(num_routes);
  for (std::size_t i = 0; i < num_routes; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int da = device.ManhattanDistance(from[a], to[a]);
    const int db = device.ManhattanDistance(from[b], to[b]);
    if (da != db) return da > db;
    return a < b;
  });

  // Initial shortest-path routing.
  MazeSearch search(device);
  UsageTracker usage(arch.num_segments(), NumParents(routing.two_pin_nets));
  for (const std::size_t i : order) {
    [[maybe_unused]] const bool found = search.Route(
        from[i], to[i], [](SegmentIndex) { return 1.0; }, &routing.routes[i]);
    assert(found && "grid is connected");
    usage.Add(routing.routes[i], routing.two_pin_nets[i].parent);
  }

  // No routing peaks below the cut bound, so a capacity target under it
  // cannot negotiate to feasibility: stop the descent there.
  const int lower_bound =
      CongestionLowerBound(arch, placement, routing.two_pin_nets);
  const int initial_peak = usage.Peak();
  int final_peak = initial_peak;
  int capacities_tried = 0;
  int rounds = 0;

  std::vector<double> history(static_cast<std::size_t>(arch.num_segments()),
                              0.0);
  std::vector<std::vector<SegmentIndex>> best = routing.routes;

  // Tighten the capacity target until negotiation fails.
  for (int capacity = initial_peak - 1;
       capacity >= std::max(1, lower_bound); --capacity) {
    ++capacities_tried;
    double present_factor = options.present_factor_initial;
    bool feasible = false;
    for (int round = 0; round < options.negotiation_rounds && !feasible;
         ++round) {
      ++rounds;
      for (const std::size_t i : order) {
        const NetId parent = routing.two_pin_nets[i].parent;
        usage.Remove(routing.routes[i], parent);
        const auto cost = [&](SegmentIndex seg) {
          const int others = usage.UsageExcluding(seg, parent);
          const int overuse = std::max(0, others + 1 - capacity);
          return 1.0 + present_factor * overuse +
                 options.history_factor *
                     history[static_cast<std::size_t>(seg)];
        };
        [[maybe_unused]] const bool found =
            search.Route(from[i], to[i], cost, &routing.routes[i]);
        assert(found);
        usage.Add(routing.routes[i], parent);
      }
      // Accumulate history on overused segments; raise the pressure.
      for (SegmentIndex seg = 0; seg < arch.num_segments(); ++seg) {
        const int overuse = std::max(0, usage.Usage(seg) - capacity);
        history[static_cast<std::size_t>(seg)] += overuse;
      }
      present_factor *= options.present_factor_growth;
      feasible = (usage.TotalOveruse(capacity) == 0);
    }
    if (feasible) {
      best = routing.routes;
      final_peak = usage.Peak();
    } else {
      break;  // this capacity is out of reach; keep the last feasible one
    }
  }
  routing.routes = std::move(best);

  span.AddArg("lower_bound", lower_bound);
  span.AddArg("initial_peak", initial_peak);
  span.AddArg("final_peak", final_peak);
  span.AddArg("capacities_tried", capacities_tried);
  span.AddArg("rounds", rounds);
  return routing;
}

}  // namespace satfr::route
