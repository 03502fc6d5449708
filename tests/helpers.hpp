// Shared fixtures for the test suite, including the paper's two worked
// figures. Both are reconstructions: the paper text does not carry the
// figures' node and edge lists, so the instances are built to show the
// same behaviour and their expected values are computed by hand.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"

namespace lps::testing {

/// A layered bipartite instance in the style of the paper's Figure 1,
/// with hand-computed Algorithm 3 path counts.
///
///   free X: x0=0, x1=1          (depth 0)
///   Y:      y0=2, y1=3, y2=4    (depth 1; y2 free => length-1 path)
///   X:      x2=5, x3=6          (depth 2; matched to y0, y1)
///   free Y: y3=7, y4=8          (depth 3)
///
/// Expected totals n_v: y0=1, y1=2, y2=1, x2=1, x3=2, y3=3, y4=2.
struct Fig1Instance {
  Graph graph;
  std::vector<std::uint8_t> side;
  Matching matching;
};

inline Fig1Instance make_fig1() {
  std::vector<Edge> edges = {
      {0, 2}, {0, 3}, {1, 3}, {1, 4},  // depth 0 -> 1 (unmatched)
      {2, 5}, {3, 6},                  // matched
      {5, 7}, {6, 7}, {6, 8},          // depth 2 -> 3 (unmatched)
  };
  Fig1Instance out{Graph(9, std::move(edges)),
                   {0, 0, 1, 1, 1, 0, 0, 1, 1},
                   Matching(9)};
  out.matching.add(out.graph, out.graph.find_edge(2, 5));
  out.matching.add(out.graph, out.graph.find_edge(3, 6));
  return out;
}

/// A weighted instance mirroring Figure 2's arithmetic exactly:
/// w(M) = 14, w_M(M') = 10, and w(M'') = 26 >= w(M) + w_M(M') = 24
/// (strict because two wraps share a matched edge).
///
///   path a=0, b=1, c=2, d=3 with w(ab)=6, w(bc)=2, w(cd)=7
///   path e=4, f=5, g=6 with w(ef)=13, w(fg)=12
///   M  = { bc, fg }  (weight 14)
///   M' = { ab, cd, ef }  (w_M gains 4 + 5 + 1 = 10)
///   M''= { ab, cd, ef }  (weight 26)
struct Fig2Instance {
  WeightedGraph wg;
  Matching m;
  std::vector<EdgeId> m_prime;
};

inline Fig2Instance make_fig2() {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}};
  std::vector<double> weights = {6, 2, 7, 13, 12};
  Fig2Instance out{make_weighted(Graph(7, std::move(edges)),
                                 std::move(weights)),
                   Matching(7),
                   {}};
  const Graph& g = out.wg.graph;
  out.m.add(g, g.find_edge(1, 2));
  out.m.add(g, g.find_edge(5, 6));
  out.m_prime = {g.find_edge(0, 1), g.find_edge(2, 3), g.find_edge(4, 5)};
  return out;
}

/// Seeds used by parameterized sweeps.
inline std::vector<std::uint64_t> sweep_seeds(int count, std::uint64_t base) {
  std::vector<std::uint64_t> out;
  for (int i = 0; i < count; ++i) out.push_back(base + 977u * i);
  return out;
}

}  // namespace lps::testing
