#include <gtest/gtest.h>

#include "flow/track_checker.h"

namespace satfr::flow {
namespace {

using fpga::Arch;

route::GlobalRouting SharedSegmentRouting(const Arch& arch,
                                          netlist::NetId parent_b) {
  route::GlobalRouting routing;
  routing.two_pin_nets = {{0, 0, 1}, {parent_b, 2, 3}};
  const auto seg = arch.HorizontalSegment(0, 0);
  routing.routes = {{seg}, {seg}};
  return routing;
}

TEST(TrackCheckerTest, DistinctTracksValid) {
  const Arch arch(3);
  const auto routing = SharedSegmentRouting(arch, 1);
  std::string error;
  EXPECT_TRUE(ValidateTrackAssignment(arch, routing, {0, 1}, 2, &error))
      << error;
}

TEST(TrackCheckerTest, SameTrackDifferentParentsInvalid) {
  const Arch arch(3);
  const auto routing = SharedSegmentRouting(arch, 1);
  std::string error;
  EXPECT_FALSE(ValidateTrackAssignment(arch, routing, {0, 0}, 2, &error));
  EXPECT_NE(error.find("shared by different multi-pin nets"),
            std::string::npos);
}

TEST(TrackCheckerTest, SameTrackSameParentValid) {
  const Arch arch(3);
  const auto routing = SharedSegmentRouting(arch, 0);  // same parent
  EXPECT_TRUE(ValidateTrackAssignment(arch, routing, {0, 0}, 1));
}

TEST(TrackCheckerTest, OutOfRangeTrackInvalid) {
  const Arch arch(3);
  const auto routing = SharedSegmentRouting(arch, 1);
  EXPECT_FALSE(ValidateTrackAssignment(arch, routing, {0, 2}, 2));
  EXPECT_FALSE(ValidateTrackAssignment(arch, routing, {-1, 0}, 2));
}

TEST(TrackCheckerTest, SizeMismatchInvalid) {
  const Arch arch(3);
  const auto routing = SharedSegmentRouting(arch, 1);
  EXPECT_FALSE(ValidateTrackAssignment(arch, routing, {0}, 2));
}

TEST(TrackCheckerTest, NonOverlappingRoutesAnyTracks) {
  const Arch arch(3);
  route::GlobalRouting routing;
  routing.two_pin_nets = {{0, 0, 1}, {1, 2, 3}};
  routing.routes = {{arch.HorizontalSegment(0, 0)},
                    {arch.HorizontalSegment(0, 2)}};
  EXPECT_TRUE(ValidateTrackAssignment(arch, routing, {0, 0}, 1));
}

// The graph-level check every SAT answer of RouteDetailedOnGraph passes.
TEST(TrackCheckerTest, ValidateColoringCatchesEveryCorruption) {
  graph::Graph path(3);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  std::string error;
  EXPECT_TRUE(ValidateColoring(path, {0, 1, 0}, 2, &error)) << error;
  EXPECT_FALSE(ValidateColoring(path, {0, 1}, 2, &error));  // too short
  EXPECT_FALSE(ValidateColoring(path, {0, 1, 0, 1}, 2, &error));  // too long
  EXPECT_FALSE(ValidateColoring(path, {0, 2, 0}, 2, &error));  // >= W
  EXPECT_FALSE(ValidateColoring(path, {0, -1, 0}, 2, &error));  // < 0
  EXPECT_FALSE(ValidateColoring(path, {0, 0, 1}, 2, &error));  // clash
  EXPECT_NE(error.find("share a track"), std::string::npos);
}

}  // namespace
}  // namespace satfr::flow
