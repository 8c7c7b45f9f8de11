#include "cube/cube_gen.h"

#include <algorithm>
#include <cstdint>

namespace satfr::cube {

namespace {

// One partial assignment of colors to the branch-vertex prefix.
struct Leaf {
  std::vector<int> colors;  // colors[i] = color of branch_vertices[i]
};

}  // namespace

CubeSet GenerateCubes(const graph::Graph& g,
                      const encode::DomainEncoding& domain,
                      const std::vector<graph::VertexId>& symmetry_sequence,
                      const CubeGenOptions& options) {
  CubeSet out;
  const int n = g.num_vertices();
  const int colors = domain.domain_size;

  // Branch order: the symmetry sequence first (smallest domains, so the
  // early tree levels stay narrow and balanced), then every remaining
  // vertex by descending degree, ties by descending neighbor-degree sum,
  // then ascending id — the same key the s1 heuristic ranks by.
  std::vector<char> in_sequence(static_cast<std::size_t>(n), 0);
  std::vector<graph::VertexId> order;
  for (const graph::VertexId v : symmetry_sequence) {
    in_sequence[static_cast<std::size_t>(v)] = 1;
    order.push_back(v);
  }
  std::vector<graph::VertexId> rest;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (!in_sequence[static_cast<std::size_t>(v)]) rest.push_back(v);
  }
  std::sort(rest.begin(), rest.end(),
            [&g](graph::VertexId a, graph::VertexId b) {
              if (g.Degree(a) != g.Degree(b)) return g.Degree(a) > g.Degree(b);
              if (g.NeighborDegreeSum(a) != g.NeighborDegreeSum(b)) {
                return g.NeighborDegreeSum(a) > g.NeighborDegreeSum(b);
              }
              return a < b;
            });
  order.insert(order.end(), rest.begin(), rest.end());

  // Expand the branch tree breadth-first, one vertex per level, until the
  // cube target or the vertex caps stop it. Colors == 1 vertices (the first
  // sequence vertex) don't split but still commit an assumption, which
  // seeds every worker's search with the forced prefix.
  std::vector<Leaf> leaves(1);
  std::vector<Leaf> next;
  for (const graph::VertexId v : order) {
    if (colors <= 0) break;
    if (static_cast<int>(out.branch_vertices.size()) >=
        options.max_branch_vertices) {
      break;
    }
    if (static_cast<int>(leaves.size()) >= options.target_cubes) break;

    const int position = static_cast<int>(out.branch_vertices.size());
    int limit = colors;
    if (in_sequence[static_cast<std::size_t>(v)]) {
      // Sequence vertex i (1-based) is restricted to colors < i.
      limit = std::min(colors, position + 1);
      out.pruned_symmetry +=
          leaves.size() * static_cast<std::size_t>(colors - limit);
    }

    next.clear();
    for (const Leaf& leaf : leaves) {
      for (int c = 0; c < limit; ++c) {
        bool conflict = false;
        for (int i = 0; i < position; ++i) {
          if (leaf.colors[static_cast<std::size_t>(i)] == c &&
              g.HasEdge(out.branch_vertices[static_cast<std::size_t>(i)],
                        v)) {
            conflict = true;
            break;
          }
        }
        if (conflict) {
          ++out.pruned_conflict;
          continue;
        }
        Leaf extended = leaf;
        extended.colors.push_back(c);
        next.push_back(std::move(extended));
      }
    }
    out.branch_vertices.push_back(v);
    leaves.swap(next);
    if (leaves.empty()) break;  // every leaf entailed-refuted: UNSAT cover
  }

  // Materialize assumption literals: for each committed (vertex, color),
  // assert every literal of the color's value cube shifted into the
  // vertex's variable block.
  out.cubes.reserve(leaves.size());
  for (const Leaf& leaf : leaves) {
    std::vector<sat::Lit> assumptions;
    for (std::size_t i = 0; i < leaf.colors.size(); ++i) {
      const graph::VertexId v = out.branch_vertices[i];
      const int offset = static_cast<int>(v) * domain.num_vars;
      const encode::Cube& value_cube =
          domain.value_cubes[static_cast<std::size_t>(leaf.colors[i])];
      for (const sat::Lit l : value_cube) {
        assumptions.push_back(sat::Lit::Make(l.var() + offset, l.negated()));
      }
    }
    out.cubes.push_back(std::move(assumptions));
  }
  return out;
}

}  // namespace satfr::cube
