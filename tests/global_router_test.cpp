#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "netlist/mcnc_suite.h"
#include "obs/trace.h"
#include "route/global_router.h"

namespace satfr::route {
namespace {

using fpga::Arch;
using fpga::DeviceGraph;

constexpr Decomposition kDecompositions[] = {Decomposition::kStar,
                                             Decomposition::kChain};

// StableHash64 over every route's segment list, in route order.
std::uint64_t RouteFingerprint(const GlobalRouting& routing) {
  std::string bytes;
  for (const auto& route : routing.routes) {
    bytes.append(std::to_string(route.size())).push_back(':');
    for (const fpga::SegmentIndex seg : route) {
      bytes.append(std::to_string(seg)).push_back(',');
    }
    bytes.push_back(';');
  }
  return StableHash64(bytes);
}

TEST(GlobalRouterTest, RoutesValidateOnAllSmallBenchmarks) {
  for (const std::string name : {"tiny", "9symml", "term1"}) {
    const netlist::McncBenchmark bench =
        netlist::GenerateMcncBenchmark(name);
    const Arch arch(bench.params.grid_size);
    const DeviceGraph device(arch);
    const GlobalRouting routing =
        RouteGlobally(device, bench.netlist, bench.placement);
    std::string error;
    EXPECT_TRUE(
        ValidateGlobalRouting(arch, bench.placement, routing, &error))
        << name << ": " << error;
    EXPECT_EQ(routing.NumTwoPinNets(),
              static_cast<std::size_t>(bench.netlist.NumTwoPinConnections()))
        << name;
  }
}

TEST(GlobalRouterTest, NegotiationDoesNotWorsenShortestPathPeak) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark("term1");
  const Arch arch(bench.params.grid_size);
  const DeviceGraph device(arch);

  // Baseline: pure shortest paths (negotiation disabled via 0 rounds).
  GlobalRouterOptions no_negotiation;
  no_negotiation.negotiation_rounds = 0;
  const GlobalRouting baseline =
      RouteGlobally(device, bench.netlist, bench.placement, no_negotiation);

  const GlobalRouting negotiated =
      RouteGlobally(device, bench.netlist, bench.placement);
  EXPECT_LE(PeakCongestion(arch, negotiated),
            PeakCongestion(arch, baseline));
}

TEST(GlobalRouterTest, Deterministic) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark("9symml");
  const Arch arch(bench.params.grid_size);
  const DeviceGraph device(arch);
  const GlobalRouting a = RouteGlobally(device, bench.netlist, bench.placement);
  const GlobalRouting b = RouteGlobally(device, bench.netlist, bench.placement);
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i], b.routes[i]) << "route " << i;
  }
}

TEST(GlobalRouterTest, PeakCongestionIsPositive) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark("tiny");
  const Arch arch(bench.params.grid_size);
  const DeviceGraph device(arch);
  const GlobalRouting routing =
      RouteGlobally(device, bench.netlist, bench.placement);
  EXPECT_GE(PeakCongestion(arch, routing), 1);
}

// Pins the exact routes of the Table 2 circuits and the small extras under
// both decompositions. The router's speedups must leave every path as is:
// the conflict graphs, and so every W* in the paper's tables, follow from
// them.
TEST(GlobalRouterTest, RoutesMatchPinnedFingerprints) {
  struct Pinned {
    const char* name;
    std::uint64_t star;
    std::uint64_t chain;
  };
  const Pinned pinned[] = {
      {"alu2", 0xd125b6ffdfc08929ULL, 0xd34ff9e5b1c3d5f9ULL},
      {"too_large", 0x448980b2bd85569dULL, 0x607872ee79b5d1acULL},
      {"alu4", 0x4631cbc2d1e0277dULL, 0x65033ab105c8bbd0ULL},
      {"C880", 0x1038d5dc0063f3f8ULL, 0xdff472b95b46ccebULL},
      {"apex7", 0x7b713a51e8fc1daeULL, 0xe47cd51764b77c8bULL},
      {"C1355", 0xd4fb3fdcea42308bULL, 0xf363b3d039398a58ULL},
      {"vda", 0x81eaccb565c58e02ULL, 0x9c80d72da488c67bULL},
      {"k2", 0xb811f41c2f4bc5a3ULL, 0x65578ccd78925f76ULL},
      {"tiny", 0xe8c1ada138b775deULL, 0x0086cd45b870e71cULL},
      {"9symml", 0x006521eafb878708ULL, 0xb711a1717029aa8eULL},
      {"term1", 0xa8ed78ad1d47b820ULL, 0xa3a31f5c4b18ea3bULL},
  };
  for (const Pinned& p : pinned) {
    const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark(p.name);
    const Arch arch(bench.params.grid_size);
    const DeviceGraph device(arch);
    for (const Decomposition d : kDecompositions) {
      GlobalRouterOptions options;
      options.decomposition = d;
      const GlobalRouting routing =
          RouteGlobally(device, bench.netlist, bench.placement, options);
      EXPECT_EQ(RouteFingerprint(routing),
                d == Decomposition::kStar ? p.star : p.chain)
          << p.name << " " << ToString(d) << " 0x" << std::hex
          << RouteFingerprint(routing);
    }
  }
}

std::vector<TwoPinNet> Decompose(const netlist::McncBenchmark& bench,
                                 Decomposition decomposition) {
  return decomposition == Decomposition::kChain
             ? DecomposeToTwoPinChain(bench.netlist, bench.placement)
             : DecomposeToTwoPin(bench.netlist);
}

TEST(GlobalRouterTest, LowerBoundNeverExceedsRoutedPeak) {
  for (const std::string& name : netlist::AllBenchmarkNames()) {
    const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark(name);
    const Arch arch(bench.params.grid_size);
    const DeviceGraph device(arch);
    for (const Decomposition d : kDecompositions) {
      GlobalRouterOptions options;
      options.decomposition = d;
      const GlobalRouting routing =
          RouteGlobally(device, bench.netlist, bench.placement, options);
      const int bound =
          CongestionLowerBound(arch, bench.placement, Decompose(bench, d));
      EXPECT_GE(bound, 1) << name << " " << ToString(d);
      EXPECT_LE(bound, PeakCongestion(arch, routing))
          << name << " " << ToString(d);
    }
  }
}

// k nets share the corner block (0,0) and each leave for a distinct far
// block. The corner node has two segments, so every routing peaks at
// ceil(k/2) or more, and the router meets that exactly.
TEST(GlobalRouterTest, LowerBoundIsExactAtACornerFanout) {
  const int grid = 8;
  const int far[][2] = {{7, 7}, {7, 3}, {3, 7}, {6, 5}, {5, 6}, {7, 0}};
  for (int k = 1; k <= 6; ++k) {
    netlist::Netlist nets;
    netlist::Placement placement(grid, k + 1);
    const netlist::BlockId corner = nets.AddBlock("corner");
    placement.Place(corner, 0, 0);
    for (int i = 0; i < k; ++i) {
      const std::string index = std::to_string(i);
      const netlist::BlockId sink =
          nets.AddBlock(std::string("far").append(index));
      placement.Place(sink, far[i][0], far[i][1]);
      nets.AddNet(
          netlist::Net{std::string("n").append(index), corner, {sink}});
    }
    const Arch arch(grid);
    const DeviceGraph device(arch);
    const int expected = (k + 1) / 2;
    EXPECT_EQ(CongestionLowerBound(arch, placement, DecomposeToTwoPin(nets)),
              expected)
        << "k=" << k;
    EXPECT_EQ(PeakCongestion(arch, RouteGlobally(device, nets, placement)),
              expected)
        << "k=" << k;
  }
}

// On these circuits the bound meets the routed peak, so the router skips
// the capacity target below it instead of negotiating it to failure.
TEST(GlobalRouterTest, LowerBoundMeetsPeakOnTightCircuits) {
  for (const std::string name : {"alu2", "alu4", "C880", "C1355", "k2"}) {
    const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark(name);
    const Arch arch(bench.params.grid_size);
    const DeviceGraph device(arch);
    for (const Decomposition d : kDecompositions) {
      GlobalRouterOptions options;
      options.decomposition = d;
      const GlobalRouting routing =
          RouteGlobally(device, bench.netlist, bench.placement, options);
      const int bound =
          CongestionLowerBound(arch, bench.placement, Decompose(bench, d));
      EXPECT_EQ(bound, PeakCongestion(arch, routing))
          << name << " " << ToString(d);
    }
  }
}

TEST(GlobalRouterTest, EmitsOneSpanPerCall) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark("9symml");
  const Arch arch(bench.params.grid_size);
  const DeviceGraph device(arch);
  obs::TraceWriter writer;
  obs::SetGlobalTrace(&writer);
  const GlobalRouting routing =
      RouteGlobally(device, bench.netlist, bench.placement);
  RouteGlobally(device, bench.netlist, bench.placement);
  obs::SetGlobalTrace(nullptr);

  const obs::JsonValue trace = writer.ToJson();
  const obs::JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int spans = 0;
  for (const obs::JsonValue& event : events->AsArray()) {
    if (event.Find("name")->AsString() != "route.global") continue;
    ++spans;
    EXPECT_EQ(event.Find("ph")->AsString(), "X");
    const obs::JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    for (const char* key : {"lower_bound", "initial_peak", "final_peak",
                            "capacities_tried", "rounds"}) {
      ASSERT_NE(args->Find(key), nullptr) << key;
    }
    const std::int64_t lower = args->Find("lower_bound")->AsInt();
    const std::int64_t final_peak = args->Find("final_peak")->AsInt();
    EXPECT_EQ(final_peak, PeakCongestion(arch, routing));
    EXPECT_LE(lower, final_peak);
    EXPECT_LE(final_peak, args->Find("initial_peak")->AsInt());
    EXPECT_LE(args->Find("capacities_tried")->AsInt(),
              args->Find("rounds")->AsInt());
  }
  EXPECT_EQ(spans, 2);
}

}  // namespace
}  // namespace satfr::route
