#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/mcnc_suite.h"
#include "route/two_pin.h"

namespace satfr::route {
namespace {

TEST(TwoPinTest, StarDecomposition) {
  netlist::Netlist nets;
  for (int i = 0; i < 5; ++i) {
    nets.AddBlock(std::string("b").append(std::to_string(i)));
  }
  nets.AddNet(netlist::Net{"n0", 0, {1, 2, 3}});
  nets.AddNet(netlist::Net{"n1", 4, {0}});
  const auto two_pin = DecomposeToTwoPin(nets);
  ASSERT_EQ(two_pin.size(), 4u);
  // Net order then sink order.
  EXPECT_EQ(two_pin[0].parent, 0);
  EXPECT_EQ(two_pin[0].source, 0);
  EXPECT_EQ(two_pin[0].sink, 1);
  EXPECT_EQ(two_pin[1].sink, 2);
  EXPECT_EQ(two_pin[2].sink, 3);
  EXPECT_EQ(two_pin[3].parent, 1);
  EXPECT_EQ(two_pin[3].source, 4);
  EXPECT_EQ(two_pin[3].sink, 0);
}

TEST(TwoPinTest, EveryTwoPinKeepsItsParentSource) {
  netlist::Netlist nets;
  for (int i = 0; i < 6; ++i) {
    nets.AddBlock(std::string("b").append(std::to_string(i)));
  }
  nets.AddNet(netlist::Net{"n0", 2, {0, 5}});
  nets.AddNet(netlist::Net{"n1", 1, {3, 4}});
  const auto two_pin = DecomposeToTwoPin(nets);
  for (const TwoPinNet& t : two_pin) {
    EXPECT_EQ(t.source, nets.net(t.parent).source);
  }
}

TEST(TwoPinTest, EmptyNetlist) {
  EXPECT_TRUE(DecomposeToTwoPin(netlist::Netlist()).empty());
}

netlist::Placement LinePlacement(const netlist::Netlist& nets, int grid) {
  netlist::Placement placement(grid, nets.num_blocks());
  for (netlist::BlockId b = 0; b < nets.num_blocks(); ++b) {
    placement.Place(b, b % grid, b / grid);
  }
  return placement;
}

TEST(TwoPinChainTest, WalksNearestNeighborOrder) {
  netlist::Netlist nets;
  for (int i = 0; i < 4; ++i) {
    nets.AddBlock(std::string("b").append(std::to_string(i)));
  }
  // Blocks placed on a line at x = 0,1,2,3 (y=0). Net from block 0 to
  // sinks {3, 1, 2}: the chain must visit 1, then 2, then 3.
  nets.AddNet(netlist::Net{"n", 0, {3, 1, 2}});
  const auto placement = LinePlacement(nets, 4);
  const auto chain = DecomposeToTwoPinChain(nets, placement);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].source, 0);
  EXPECT_EQ(chain[0].sink, 1);
  EXPECT_EQ(chain[1].source, 1);
  EXPECT_EQ(chain[1].sink, 2);
  EXPECT_EQ(chain[2].source, 2);
  EXPECT_EQ(chain[2].sink, 3);
  for (const TwoPinNet& t : chain) {
    EXPECT_EQ(t.parent, 0);
  }
}

TEST(TwoPinChainTest, SameCountAsStar) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark("tiny");
  const auto star = DecomposeToTwoPin(bench.netlist);
  const auto chain =
      DecomposeToTwoPinChain(bench.netlist, bench.placement);
  EXPECT_EQ(star.size(), chain.size());
}

TEST(TwoPinChainTest, EverySinkReachedExactlyOnce) {
  const netlist::McncBenchmark bench =
      netlist::GenerateMcncBenchmark("9symml");
  const auto chain =
      DecomposeToTwoPinChain(bench.netlist, bench.placement);
  // Group by parent and check the chain visits each sink once, starting at
  // the net source.
  for (netlist::NetId id = 0; id < bench.netlist.num_nets(); ++id) {
    const netlist::Net& net = bench.netlist.net(id);
    std::vector<netlist::BlockId> visited;
    netlist::BlockId at = net.source;
    for (const TwoPinNet& t : chain) {
      if (t.parent != id) continue;
      EXPECT_EQ(t.source, at) << "net " << id << " chain broken";
      visited.push_back(t.sink);
      at = t.sink;
    }
    std::vector<netlist::BlockId> expected = net.sinks;
    std::sort(expected.begin(), expected.end());
    std::sort(visited.begin(), visited.end());
    EXPECT_EQ(visited, expected) << "net " << id;
  }
}

TEST(TwoPinChainTest, NameRoundTrip) {
  EXPECT_STREQ(ToString(Decomposition::kStar), "star");
  EXPECT_STREQ(ToString(Decomposition::kChain), "chain");
}

TEST(TwoPinTest, CountMatchesConnections) {
  netlist::Netlist nets;
  for (int i = 0; i < 8; ++i) {
    nets.AddBlock(std::string("b").append(std::to_string(i)));
  }
  nets.AddNet(netlist::Net{"n0", 0, {1, 2, 3, 4, 5, 6, 7}});
  EXPECT_EQ(DecomposeToTwoPin(nets).size(),
            static_cast<std::size_t>(nets.NumTwoPinConnections()));
}

}  // namespace
}  // namespace satfr::route
