#include "cube/cube_gen.h"

#include <gtest/gtest.h>

#include "encode/registry.h"
#include "graph/graph.h"
#include "symmetry/symmetry.h"

namespace satfr::cube {
namespace {

encode::DomainEncoding Domain(const char* encoding, int colors) {
  return encode::EncodeDomain(encode::GetEncoding(encoding), colors);
}

TEST(CubeGenTest, EdgelessGraphSplitsToTargetExactly) {
  // No conflicts and no sequence: each branch vertex multiplies the leaf
  // count by the full color count, so 3 colors cross a target of 27 at
  // exactly depth 3 with no pruning.
  graph::Graph g(10);
  const encode::DomainEncoding domain = Domain("muldirect", 3);
  CubeGenOptions options;
  options.target_cubes = 27;
  const CubeSet cubes = GenerateCubes(g, domain, {}, options);
  EXPECT_EQ(cubes.cubes.size(), 27u);
  EXPECT_EQ(cubes.branch_vertices.size(), 3u);
  EXPECT_EQ(cubes.pruned_conflict, 0u);
  EXPECT_EQ(cubes.pruned_symmetry, 0u);
}

TEST(CubeGenTest, BranchVertexCapIsRespected) {
  graph::Graph g(10);
  const encode::DomainEncoding domain = Domain("muldirect", 3);
  CubeGenOptions options;
  options.target_cubes = 1 << 20;  // unreachable: the cap cuts first
  options.max_branch_vertices = 2;
  const CubeSet cubes = GenerateCubes(g, domain, {}, options);
  EXPECT_EQ(cubes.branch_vertices.size(), 2u);
  EXPECT_EQ(cubes.cubes.size(), 9u);
}

TEST(CubeGenTest, HighestDegreeVertexBranchesFirst) {
  // Star: the center has degree 4, every leaf degree 1.
  graph::Graph g(5);
  for (graph::VertexId v = 1; v < 5; ++v) g.AddEdge(0, v);
  const encode::DomainEncoding domain = Domain("muldirect", 3);
  CubeGenOptions options;
  options.target_cubes = 2;
  const CubeSet cubes = GenerateCubes(g, domain, {}, options);
  ASSERT_FALSE(cubes.branch_vertices.empty());
  EXPECT_EQ(cubes.branch_vertices[0], 0);
}

TEST(CubeGenTest, SequenceVerticesBranchFirstWithClippedDomains) {
  // Sequence vertex i only enumerates colors < i+1 (its restriction
  // clauses forbid the rest); the skipped colors are counted, not emitted.
  graph::Graph g(2);
  const encode::DomainEncoding domain = Domain("muldirect", 3);
  const std::vector<graph::VertexId> sequence = {0, 1};
  const CubeSet cubes = GenerateCubes(g, domain, sequence);
  EXPECT_EQ(cubes.cubes.size(), 2u);  // 1 (v0: color 0) x 2 (v1: colors 0,1)
  ASSERT_EQ(cubes.branch_vertices.size(), 2u);
  EXPECT_EQ(cubes.branch_vertices[0], 0);
  EXPECT_EQ(cubes.branch_vertices[1], 1);
  EXPECT_EQ(cubes.pruned_symmetry, 3u);  // v0 skipped 2 colors, v1 skipped 1
}

TEST(CubeGenTest, ConflictPruningDropsAdjacentEqualColors) {
  // Triangle with 2 colors and a full symmetry sequence: v0 takes color 0,
  // v1 the remaining color 1, and both colors of v2 collide with a
  // neighbor. The cube set prunes to empty — which is exactly the UNSAT
  // proof (K3 is not 2-colorable), so an empty set must be reported, not
  // treated as an error.
  graph::Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  const encode::DomainEncoding domain = Domain("muldirect", 2);
  const std::vector<graph::VertexId> sequence = {0, 1, 2};
  const CubeSet cubes = GenerateCubes(g, domain, sequence);
  EXPECT_TRUE(cubes.cubes.empty());
  EXPECT_GT(cubes.pruned_conflict, 0u);
}

TEST(CubeGenTest, CubeLiteralsLieInBranchVertexBlocks) {
  graph::Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  for (const char* name : {"muldirect", "log", "ITE-linear-2+muldirect"}) {
    const encode::DomainEncoding domain = Domain(name, 4);
    CubeGenOptions options;
    options.target_cubes = 16;
    const CubeSet cubes = GenerateCubes(g, domain, {}, options);
    ASSERT_FALSE(cubes.cubes.empty()) << name;
    for (const std::vector<sat::Lit>& cube : cubes.cubes) {
      ASSERT_FALSE(cube.empty()) << name;
      for (const sat::Lit& lit : cube) {
        bool in_some_block = false;
        for (const graph::VertexId v : cubes.branch_vertices) {
          const sat::Var lo = v * domain.num_vars;
          if (lit.var() >= lo && lit.var() < lo + domain.num_vars) {
            in_some_block = true;
          }
        }
        EXPECT_TRUE(in_some_block) << name;
      }
    }
  }
}

TEST(CubeGenTest, GenerationIsDeterministic) {
  graph::Graph g(12);
  for (graph::VertexId v = 0; v + 1 < 12; ++v) g.AddEdge(v, v + 1);
  g.AddEdge(0, 6);
  g.AddEdge(3, 9);
  const encode::DomainEncoding domain = Domain("muldirect", 3);
  const auto sequence = symmetry::SymmetrySequence(g, 3,
                                                  symmetry::Heuristic::kS1);
  const CubeSet first = GenerateCubes(g, domain, sequence);
  const CubeSet second = GenerateCubes(g, domain, sequence);
  EXPECT_EQ(first.cubes, second.cubes);
  EXPECT_EQ(first.branch_vertices, second.branch_vertices);
  EXPECT_EQ(first.pruned_conflict, second.pruned_conflict);
  EXPECT_EQ(first.pruned_symmetry, second.pruned_symmetry);
}

}  // namespace
}  // namespace satfr::cube
