#include <gtest/gtest.h>

#include "route/global_routing.h"

namespace satfr::route {
namespace {

using fpga::Arch;

// Two blocks at (0,0) and (2,0) on a 3x3 grid, one net between them; a
// second net from (0,1) to (2,1).
struct Fixture {
  Arch arch{3};
  netlist::Netlist nets;
  netlist::Placement placement{3, 4};
  GlobalRouting routing;

  Fixture() {
    for (int i = 0; i < 4; ++i) {
      nets.AddBlock(std::string("b").append(std::to_string(i)));
    }
    placement.Place(0, 0, 0);
    placement.Place(1, 2, 0);
    placement.Place(2, 0, 1);
    placement.Place(3, 2, 1);
    nets.AddNet(netlist::Net{"n0", 0, {1}});
    nets.AddNet(netlist::Net{"n1", 2, {3}});
    routing.two_pin_nets = DecomposeToTwoPin(nets);
    // Straight horizontal routes.
    routing.routes = {
        {arch.HorizontalSegment(0, 0), arch.HorizontalSegment(1, 0)},
        {arch.HorizontalSegment(0, 1), arch.HorizontalSegment(1, 1)},
    };
  }
};

TEST(GlobalRoutingTest, ValidRoutingPasses) {
  Fixture f;
  std::string error;
  EXPECT_TRUE(ValidateGlobalRouting(f.arch, f.placement, f.routing, &error))
      << error;
}

TEST(GlobalRoutingTest, DisconnectedRouteFails) {
  Fixture f;
  f.routing.routes[0] = {f.arch.HorizontalSegment(0, 0),
                         f.arch.HorizontalSegment(0, 1)};  // not adjacent
  std::string error;
  EXPECT_FALSE(ValidateGlobalRouting(f.arch, f.placement, f.routing, &error));
  EXPECT_NE(error.find("disconnected"), std::string::npos);
}

TEST(GlobalRoutingTest, WrongEndpointFails) {
  Fixture f;
  f.routing.routes[0] = {f.arch.HorizontalSegment(0, 0)};  // stops early
  std::string error;
  EXPECT_FALSE(ValidateGlobalRouting(f.arch, f.placement, f.routing, &error));
  EXPECT_NE(error.find("does not end"), std::string::npos);
}

TEST(GlobalRoutingTest, CountMismatchFails) {
  Fixture f;
  f.routing.routes.pop_back();
  EXPECT_FALSE(ValidateGlobalRouting(f.arch, f.placement, f.routing));
}

TEST(GlobalRoutingTest, InvalidSegmentIdFails) {
  Fixture f;
  f.routing.routes[0] = {static_cast<fpga::SegmentIndex>(9999)};
  std::string error;
  EXPECT_FALSE(ValidateGlobalRouting(f.arch, f.placement, f.routing, &error));
  EXPECT_NE(error.find("invalid segment"), std::string::npos);
}

TEST(GlobalRoutingTest, UsageCountsDistinctParents) {
  Fixture f;
  // Route both nets over the same segments.
  f.routing.routes[1] = f.routing.routes[0];
  const auto usage = SegmentParentUsage(f.arch, f.routing);
  EXPECT_EQ(usage[static_cast<std::size_t>(f.arch.HorizontalSegment(0, 0))],
            2);
  EXPECT_EQ(PeakCongestion(f.arch, f.routing), 2);
}

TEST(GlobalRoutingTest, SameParentCountsOnce) {
  Fixture f;
  // Replace net n1's 2-pin with a second 2-pin of net n0 over the same
  // segments: distinct-parent usage must stay 1.
  f.routing.two_pin_nets[1].parent = 0;
  f.routing.routes[1] = f.routing.routes[0];
  EXPECT_EQ(PeakCongestion(f.arch, f.routing), 1);
}

TEST(GlobalRoutingTest, Wirelength) {
  Fixture f;
  EXPECT_EQ(f.routing.TotalWirelength(), 4u);
  EXPECT_EQ(f.routing.NumTwoPinNets(), 2u);
}

}  // namespace
}  // namespace satfr::route
