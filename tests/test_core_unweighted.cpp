// Tests for the unweighted distributed algorithms: Israeli–Itai
// baseline, Luby MIS, Algorithm 2's ball collection, the conflict graph
// (Definition 3.1), and Algorithm 1 (generic (1-eps)-MCM, Theorem 3.1).
#include <gtest/gtest.h>

#include <set>

#include "core/conflict_graph.hpp"
#include "core/generic_mcm.hpp"
#include "core/israeli_itai.hpp"
#include "core/local_ball.hpp"
#include "core/luby_mis.hpp"
#include "graph/generators.hpp"
#include "seq/blossom.hpp"
#include "seq/hopcroft_karp.hpp"
#include "tests/helpers.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

// ------------------------------------------------------ Israeli–Itai --

class IiSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IiSweep, ProducesMaximalMatchingOnEr) {
  Rng rng(GetParam());
  Graph g = erdos_renyi(150, 0.04, rng);
  IsraeliItaiOptions opts;
  opts.seed = GetParam() * 31 + 1;
  const DistMatchingResult res = israeli_itai(g, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(is_maximal_matching(g, res.matching));
  // Maximal => 1/2-approximation.
  const std::size_t opt = blossom_mcm(g).size();
  EXPECT_GE(2 * res.matching.size(), opt);
}

TEST_P(IiSweep, WorksOnStarAndCompleteAndPath) {
  IsraeliItaiOptions opts;
  opts.seed = GetParam();
  for (const Graph& g :
       {star_graph(40), complete_graph(24), path_graph(60)}) {
    const DistMatchingResult res = israeli_itai(g, opts);
    EXPECT_TRUE(res.converged);
    EXPECT_TRUE(is_maximal_matching(g, res.matching));
  }
}

TEST_P(IiSweep, RespectsActiveEdgeMask) {
  Rng rng(GetParam() ^ 0x55);
  Graph g = erdos_renyi(60, 0.1, rng);
  // Only even-id edges are active.
  std::vector<char> mask(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); e += 2) mask[e] = 1;
  IsraeliItaiOptions opts;
  opts.seed = GetParam();
  opts.active_edges = mask;
  const DistMatchingResult res = israeli_itai(g, opts);
  EXPECT_TRUE(res.converged);
  for (EdgeId e : res.matching.edge_ids(g)) EXPECT_TRUE(mask[e]);
  // Maximal w.r.t. the active subgraph.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!mask[e]) continue;
    const Edge& ed = g.edge(e);
    EXPECT_FALSE(res.matching.is_free(ed.u) && res.matching.is_free(ed.v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IiSweep,
                         ::testing::Values(1u, 4u, 9u, 16u, 25u, 36u));

TEST(IsraeliItai, EmptyAndTrivialGraphs) {
  EXPECT_EQ(israeli_itai(Graph(0, {})).matching.size(), 0u);
  EXPECT_EQ(israeli_itai(Graph(5, {})).matching.size(), 0u);
  const Graph two = path_graph(2);
  IsraeliItaiOptions two_opts;
  two_opts.seed = 3;
  const DistMatchingResult res = israeli_itai(two, two_opts);
  EXPECT_EQ(res.matching.size(), 1u);
}

TEST(IsraeliItai, InitialMatchingIsExtendedNotDestroyed) {
  Graph g = path_graph(6);
  Matching init = Matching::from_edges(g, {2});  // edge 2-3
  IsraeliItaiOptions opts;
  opts.seed = 11;
  opts.initial = init;
  const DistMatchingResult res = israeli_itai(g, opts);
  EXPECT_TRUE(res.matching.contains(g, 2));
  EXPECT_TRUE(is_maximal_matching(g, res.matching));
}

TEST(IsraeliItai, RoundsGrowLogarithmically) {
  // O(log n) w.h.p.: the round count for n=4096 should be well under
  // c * log2(n) for a generous c — and far from linear.
  Rng rng(77);
  Graph g = erdos_renyi(4096, 3.0 / 4096.0, rng);
  IsraeliItaiOptions opts;
  opts.seed = 7;
  const DistMatchingResult res = israeli_itai(g, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.stats.rounds, 40 * 12u + 123u);  // phase cap * 3 + slack
  EXPECT_LT(res.stats.rounds, 400u);
}

// --------------------------------------------------------------- Luby --

class LubySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LubySweep, MaximalIndependentSets) {
  Rng rng(GetParam());
  for (const Graph& g :
       {erdos_renyi(120, 0.05, rng), star_graph(30), complete_graph(15),
        cycle_graph(31), grid_graph(8, 8)}) {
    MisOptions opts;
    opts.seed = GetParam() + 17;
    const MisResult res = luby_mis(g, opts);
    EXPECT_TRUE(res.converged);
    EXPECT_TRUE(is_maximal_independent_set(g, res.in_mis));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LubySweep,
                         ::testing::Values(2u, 3u, 5u, 7u, 11u));

TEST(Luby, IsolatedVerticesAllSelected) {
  MisOptions opts;
  opts.seed = 1;
  const MisResult res = luby_mis(Graph(7, {}), opts);
  for (char c : res.in_mis) EXPECT_TRUE(c);
}

TEST(Luby, CompleteGraphSelectsExactlyOne) {
  MisOptions opts;
  opts.seed = 9;
  const MisResult res = luby_mis(complete_graph(20), opts);
  int count = 0;
  for (char c : res.in_mis) count += c;
  EXPECT_EQ(count, 1);
}

class AbiSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AbiSweep, MaximalIndependentSets) {
  Rng rng(GetParam());
  for (const Graph& g :
       {erdos_renyi(120, 0.05, rng), star_graph(30), complete_graph(15),
        cycle_graph(31), grid_graph(8, 8), Graph(9, {})}) {
    MisOptions opts;
    opts.seed = GetParam() + 23;
    const MisResult res = abi_mis(g, opts);
    EXPECT_TRUE(res.converged);
    EXPECT_TRUE(is_maximal_independent_set(g, res.in_mis));
  }
}

TEST_P(AbiSweep, GenericMcmWorksWithEitherMis) {
  Rng rng(GetParam() ^ 0x777);
  const Graph g = erdos_renyi(40, 0.1, rng);
  const std::size_t opt = blossom_mcm(g).size();
  for (const bool use_abi : {false, true}) {
    GenericMcmOptions opts;
    opts.eps = 0.5;  // k = 2 -> guarantee 2/3
    opts.seed = GetParam();
    opts.use_abi_mis = use_abi;
    opts.check_invariants = true;
    const GenericMcmResult res = generic_mcm(g, opts);
    EXPECT_GE(3 * res.matching.size(), 2 * opt) << "abi=" << use_abi;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbiSweep,
                         ::testing::Values(6u, 10u, 15u, 21u));

TEST(Luby, VerifierRejectsBadSets) {
  Graph g = path_graph(4);
  EXPECT_FALSE(is_independent_set(g, {1, 1, 0, 0}));
  EXPECT_TRUE(is_independent_set(g, {1, 0, 1, 0}));
  EXPECT_FALSE(is_maximal_independent_set(g, {1, 0, 0, 0}));  // 2,3 free
  EXPECT_TRUE(is_maximal_independent_set(g, {1, 0, 1, 0}));
}

// -------------------------------------------------- Algorithm 2 balls --

TEST(LocalBall, ViewMatchesDistanceOracle) {
  Rng rng(91);
  Graph g = erdos_renyi(40, 0.08, rng);
  Matching m = Matching(g.num_nodes());
  const int radius = 3;
  const BallViews views = collect_balls(g, m, radius);
  // BFS distance oracle.
  auto distances_from = [&](NodeId src) {
    std::vector<int> dist(g.num_nodes(), -1);
    std::vector<NodeId> q{src};
    dist[src] = 0;
    for (std::size_t h = 0; h < q.size(); ++h) {
      for (const auto& inc : g.neighbors(q[h])) {
        if (dist[inc.to] == -1) {
          dist[inc.to] = dist[q[h]] + 1;
          q.push_back(inc.to);
        }
      }
    }
    return dist;
  };
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto dist = distances_from(v);
    std::set<std::pair<NodeId, NodeId>> in_view;
    for (const LabeledEdge& le : views.view[v]) {
      in_view.insert({le.u, le.v});
    }
    for (const Edge& e : g.edges()) {
      const bool should_know =
          (dist[e.u] != -1 && dist[e.u] <= radius) ||
          (dist[e.v] != -1 && dist[e.v] <= radius);
      EXPECT_EQ(in_view.count({e.u, e.v}) > 0, should_know)
          << "v=" << v << " edge " << e.u << "-" << e.v;
    }
  }
  EXPECT_EQ(views.stats.rounds, static_cast<std::uint64_t>(radius) + 1);
}

TEST(LocalBall, CarriesMatchedFlags) {
  Graph g = path_graph(5);
  Matching m = Matching::from_edges(g, {1, 3});
  const BallViews views = collect_balls(g, m, 4);
  for (const LabeledEdge& le : views.view[0]) {
    const EdgeId e = g.find_edge(le.u, le.v);
    EXPECT_EQ(le.matched, m.contains(g, e));
  }
  EXPECT_EQ(views.view[0].size(), 4u);  // whole path visible
}

// ------------------------------------------------- conflict graph -----

TEST(ConflictGraph, EnumerationMatchesDefinitionOnPath) {
  // Path of 6, M = {2-3}: augmenting paths of length <= 3:
  //   0-1 (len 1), 1-2-3-4 (len 3), 4-5 (len 1), ... enumerate by hand:
  // free: 0,1,4,5. Edges: 0:0-1,1:1-2,2:2-3,3:3-4,4:4-5.
  // len-1 paths: 0-1, 4-5.
  // len-3 paths: 1-2-3-4.
  Graph g = path_graph(6);
  Matching m = Matching::from_edges(g, {2});
  const BallViews views = collect_balls(g, m, 6);
  const ConflictGraphResult cg = build_conflict_graph(g, m, views, 3, 1000);
  ASSERT_EQ(cg.paths.size(), 3u);
  // Conflicts: 0-1 vs 1-2-3-4 (share node 1), 1-2-3-4 vs 4-5 (share 4).
  EXPECT_EQ(cg.conflict.num_edges(), 2u);
  // Leaders are the smaller endpoints.
  for (const AugPath& p : cg.paths) {
    EXPECT_LT(p.nodes.front(), p.nodes.back());
  }
}

TEST(ConflictGraph, LeaderDeduplicationCountsEachPathOnce) {
  Rng rng(93);
  for (int t = 0; t < 10; ++t) {
    Graph g = erdos_renyi(18, 0.2, rng);
    Matching m(g.num_nodes());
    // Build a partial matching greedily on half the edges.
    for (EdgeId e = 0; e < g.num_edges(); e += 2) {
      const Edge& ed = g.edge(e);
      if (m.is_free(ed.u) && m.is_free(ed.v)) m.add(g, e);
    }
    const int l = 3;
    const BallViews views = collect_balls(g, m, 2 * l);
    const ConflictGraphResult cg =
        build_conflict_graph(g, m, views, l, 1u << 20);
    // Each enumerated path must be a valid augmenting path, and the set
    // must be duplicate-free.
    std::set<std::vector<NodeId>> seen;
    for (const AugPath& p : cg.paths) {
      EXPECT_EQ(p.edges.size() % 2, 1u);
      EXPECT_LE(p.edges.size(), static_cast<std::size_t>(l));
      EXPECT_TRUE(m.is_free(p.nodes.front()));
      EXPECT_TRUE(m.is_free(p.nodes.back()));
      for (std::size_t i = 0; i < p.edges.size(); ++i) {
        EXPECT_EQ(m.contains(g, p.edges[i]), i % 2 == 1);
      }
      EXPECT_TRUE(seen.insert(p.nodes).second);
    }
    // Cross-check total against an independent enumeration: count via
    // the bounded DFS oracle on each free pair is overkill; instead
    // verify that a path exists iff cg found at least one.
    EXPECT_EQ(!cg.paths.empty(), has_augmenting_path_leq(g, m, l));
  }
}

// --------------------------------------- Algorithm 1 (Theorem 3.1) ----

class GenericMcmSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GenericMcmSweep, ReachesApproximationWithInvariants) {
  Rng rng(GetParam());
  Graph g = erdos_renyi(48, 0.09, rng);
  GenericMcmOptions opts;
  opts.eps = 0.34;  // k = 3
  opts.seed = GetParam() ^ 0xfeed;
  opts.check_invariants = true;  // asserts Lemma 3.4 after each phase
  const GenericMcmResult res = generic_mcm(g, opts);
  const std::size_t opt = blossom_mcm(g).size();
  // k = 3: guarantee (1 - 1/(k+1)) = 3/4.
  EXPECT_GE(4 * res.matching.size(), 3 * opt);
  EXPECT_EQ(res.phases.size(), 3u);  // l = 1, 3, 5
  EXPECT_EQ(res.phases[0].l, 1);
  EXPECT_EQ(res.phases[2].l, 5);
}

TEST_P(GenericMcmSweep, BipartiteInstancesToo) {
  Rng rng(GetParam() ^ 0xabc);
  const auto bg = random_bipartite(30, 30, 0.08, rng);
  GenericMcmOptions opts;
  opts.eps = 0.5;  // k = 2
  opts.seed = GetParam();
  opts.check_invariants = true;
  const GenericMcmResult res = generic_mcm(bg.graph, opts);
  const std::size_t opt = hopcroft_karp(bg.graph, bg.side).size();
  EXPECT_GE(3 * res.matching.size(), 2 * opt);  // 1 - 1/(k+1) = 2/3
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenericMcmSweep,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST(GenericMcm, PerfectMatchingOnEvenPathAndCycle) {
  GenericMcmOptions opts;
  opts.eps = 0.2;  // k = 5, l up to 9
  opts.seed = 5;
  opts.check_invariants = true;
  // Path of 10: unique perfect matching reachable with l <= 9.
  const GenericMcmResult res = generic_mcm(path_graph(10), opts);
  EXPECT_EQ(res.matching.size(), 5u);
}

TEST(GenericMcm, MessageSizesAreLocalNotCongest) {
  // The generic algorithm ships neighborhoods: message sizes must be
  // allowed to exceed O(log n) (that is exactly why Section 3.2 exists).
  Rng rng(123);
  Graph g = erdos_renyi(64, 0.1, rng);
  GenericMcmOptions opts;
  opts.eps = 0.34;
  opts.seed = 9;
  const GenericMcmResult res = generic_mcm(g, opts);
  EXPECT_GT(res.stats.max_message_bits,
            64u);  // far beyond one id: linear-size views
  EXPECT_TRUE(is_valid_matching(g, res.matching.edge_ids(g)));
}

TEST(GenericMcm, RejectsBadEps) {
  Graph g = path_graph(4);
  GenericMcmOptions opts;
  opts.eps = 0.0;
  EXPECT_THROW(generic_mcm(g, opts), std::invalid_argument);
  opts.eps = 1.5;
  EXPECT_THROW(generic_mcm(g, opts), std::invalid_argument);
}

}  // namespace
}  // namespace lps
