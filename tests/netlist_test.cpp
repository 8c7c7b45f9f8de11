#include <gtest/gtest.h>

#include "netlist/netlist.h"

namespace satfr::netlist {
namespace {

Netlist TwoNetCircuit() {
  Netlist nets;
  for (int i = 0; i < 4; ++i) {
    nets.AddBlock(std::string("b").append(std::to_string(i)));
  }
  nets.AddNet(Net{"n0", 0, {1, 2}});
  nets.AddNet(Net{"n1", 3, {0}});
  return nets;
}

TEST(NetlistTest, CountsAndAccessors) {
  const Netlist nets = TwoNetCircuit();
  EXPECT_EQ(nets.num_blocks(), 4);
  EXPECT_EQ(nets.num_nets(), 2);
  EXPECT_EQ(nets.block(0).name, "b0");
  EXPECT_EQ(nets.net(0).name, "n0");
  EXPECT_EQ(nets.net(0).NumPins(), 3);
  EXPECT_EQ(nets.NumTwoPinConnections(), 3);
  EXPECT_EQ(nets.MaxFanout(), 2);
}

TEST(NetlistTest, ValidatePasses) {
  std::string error;
  EXPECT_TRUE(TwoNetCircuit().Validate(&error)) << error;
}

TEST(NetlistTest, ValidateRejectsBadSource) {
  Netlist nets;
  nets.AddBlock("b0");
  nets.AddNet(Net{"n", 5, {0}});
  std::string error;
  EXPECT_FALSE(nets.Validate(&error));
  EXPECT_NE(error.find("invalid source"), std::string::npos);
}

TEST(NetlistTest, ValidateRejectsEmptySinks) {
  Netlist nets;
  nets.AddBlock("b0");
  nets.AddNet(Net{"n", 0, {}});
  std::string error;
  EXPECT_FALSE(nets.Validate(&error));
  EXPECT_NE(error.find("no sinks"), std::string::npos);
}

TEST(NetlistTest, ValidateRejectsSourceAsSink) {
  Netlist nets;
  nets.AddBlock("b0");
  nets.AddBlock("b1");
  nets.AddNet(Net{"n", 0, {1, 0}});
  std::string error;
  EXPECT_FALSE(nets.Validate(&error));
  EXPECT_NE(error.find("source as a sink"), std::string::npos);
}

TEST(NetlistTest, ValidateRejectsDuplicateSinks) {
  Netlist nets;
  nets.AddBlock("b0");
  nets.AddBlock("b1");
  nets.AddNet(Net{"n", 0, {1, 1}});
  std::string error;
  EXPECT_FALSE(nets.Validate(&error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(NetlistTest, ValidateRejectsInvalidSink) {
  Netlist nets;
  nets.AddBlock("b0");
  nets.AddNet(Net{"n", 0, {9}});
  EXPECT_FALSE(nets.Validate());
}

TEST(NetlistTest, EmptyNetlistIsValid) {
  EXPECT_TRUE(Netlist().Validate());
  EXPECT_EQ(Netlist().MaxFanout(), 0);
}

}  // namespace
}  // namespace satfr::netlist
