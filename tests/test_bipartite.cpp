// Tests for the Section 3.2 bipartite CONGEST engine: Algorithm 3
// counting (against the Figure 1 instance and brute-force oracles,
// including the Lemma 3.6 bound), the token selection of Lemma 3.7, the
// Aug subroutine's maximality, and the Theorem 3.8 driver.
#include <gtest/gtest.h>

#include <cmath>

#include "core/bipartite_counting.hpp"
#include "core/bipartite_mcm.hpp"
#include "graph/generators.hpp"
#include "seq/greedy.hpp"
#include "seq/hopcroft_karp.hpp"
#include "tests/helpers.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

using lps::testing::make_fig1;
using lps::testing::sweep_seeds;

// ------------------------------------------- Algorithm 3 counting -----

TEST(BipartiteCounting, Fig1InstanceExactCounts) {
  const auto fig = make_fig1();
  const CountingResult res =
      count_augmenting_paths(fig.graph, fig.side, fig.matching, 3, {});

  // Depths: free X at 0; first Y layer at 1; matched X at 2; free Y at 3.
  const std::vector<std::uint32_t> expect_depth = {0, 0, 1, 1, 1, 2, 2, 3, 3};
  EXPECT_EQ(res.depth, expect_depth);

  // Totals (hand-computed layer by layer, as in the paper's Figure 1).
  EXPECT_EQ(res.total[2].to_u64(), 1u);  // y0 <- x0
  EXPECT_EQ(res.total[3].to_u64(), 2u);  // y1 <- x0, x1
  EXPECT_EQ(res.total[4].to_u64(), 1u);  // y2 <- x1 (length-1 path!)
  EXPECT_EQ(res.total[5].to_u64(), 1u);  // x2 <- mate y0
  EXPECT_EQ(res.total[6].to_u64(), 2u);  // x3 <- mate y1
  EXPECT_EQ(res.total[7].to_u64(), 3u);  // y3 <- x2 (1) + x3 (2)
  EXPECT_EQ(res.total[8].to_u64(), 2u);  // y4 <- x3 (2)

  // Free-Y endpoints are exactly y2, y3, y4.
  EXPECT_TRUE(res.is_path_endpoint(4));
  EXPECT_TRUE(res.is_path_endpoint(7));
  EXPECT_TRUE(res.is_path_endpoint(8));
  EXPECT_FALSE(res.is_path_endpoint(2));  // matched

  // Cross-check against the brute-force path enumerator.
  EXPECT_EQ(count_paths_oracle(fig.graph, fig.side, fig.matching, 7, 3, {}),
            3u);
  EXPECT_EQ(count_paths_oracle(fig.graph, fig.side, fig.matching, 8, 3, {}),
            2u);
  EXPECT_EQ(count_paths_oracle(fig.graph, fig.side, fig.matching, 4, 1, {}),
            1u);
}

TEST(BipartiteCounting, MessageBitsStayLogarithmicInDelta) {
  // CONGEST claim: counting messages are O(l log Delta) bits.
  Rng rng(7);
  const auto bg = random_bipartite(60, 60, 0.08, rng);
  Matching m(bg.graph.num_nodes());
  const CountingResult res =
      count_augmenting_paths(bg.graph, bg.side, m, 5, {});
  const double log_delta = std::log2(bg.graph.max_degree() + 1.0);
  EXPECT_LE(res.stats.max_message_bits,
            static_cast<std::uint64_t>(8 * (5 * log_delta + 8)));
}

TEST(BipartiteCounting, Lemma36UpperBound) {
  // n_v <= Delta^{ceil(d(v)/2)}.
  Rng rng(11);
  for (std::uint64_t seed : sweep_seeds(6, 100)) {
    Rng local(seed);
    const auto bg = random_bipartite(25, 25, 0.15, local);
    // A partial matching (greedy over half the edges).
    Matching m(bg.graph.num_nodes());
    for (EdgeId e = 0; e < bg.graph.num_edges(); e += 2) {
      const Edge& ed = bg.graph.edge(e);
      if (m.is_free(ed.u) && m.is_free(ed.v)) m.add(bg.graph, e);
    }
    const CountingResult res =
        count_augmenting_paths(bg.graph, bg.side, m, 7, {});
    const double delta = bg.graph.max_degree();
    for (NodeId v = 0; v < bg.graph.num_nodes(); ++v) {
      if (res.depth[v] == kUnreached || res.total[v].is_zero()) continue;
      const double bound =
          std::pow(delta, std::ceil(res.depth[v] / 2.0)) + 0.5;
      EXPECT_LE(res.total[v].to_double(), bound)
          << "v=" << v << " d=" << res.depth[v];
    }
  }
  (void)rng;
}

TEST(BipartiteCounting, CountsMatchOracleAtShortestDepth) {
  // Lemma 3.6 equality holds for endpoints at the globally shortest
  // augmenting-path length (see the lemma's no-shorter-paths premise).
  for (std::uint64_t seed : sweep_seeds(8, 777)) {
    Rng rng(seed);
    const auto bg = random_bipartite(20, 20, 0.12, rng);
    Matching m = greedy_mcm(bg.graph);
    // Drop one matched edge to create augmenting paths of length >= 3
    // sometimes.
    auto ids = m.edge_ids(bg.graph);
    if (ids.size() >= 2) m.remove(bg.graph, ids[ids.size() / 2]);
    const int cap = 7;
    const CountingResult res =
        count_augmenting_paths(bg.graph, bg.side, m, cap, {});
    // Find the shortest endpoint depth.
    std::uint32_t shortest = kUnreached;
    for (NodeId v = 0; v < bg.graph.num_nodes(); ++v) {
      if (bg.side[v] == 1 && m.is_free(v) && res.depth[v] != kUnreached &&
          !res.total[v].is_zero()) {
        shortest = std::min(shortest, res.depth[v]);
      }
    }
    if (shortest == kUnreached) continue;
    for (NodeId v = 0; v < bg.graph.num_nodes(); ++v) {
      if (bg.side[v] != 1 || !m.is_free(v) || res.depth[v] != shortest) {
        continue;
      }
      const std::uint64_t oracle = count_paths_oracle(
          bg.graph, bg.side, m, v, static_cast<int>(shortest), {});
      EXPECT_EQ(res.total[v].to_u64(), oracle) << "v=" << v;
    }
  }
}

TEST(BipartiteCounting, RespectsActiveEdgeMask) {
  const auto fig = make_fig1();
  // Deactivate the edge x3-y3 (6,7): y3's count drops to 1.
  std::vector<char> mask(fig.graph.num_edges(), 1);
  mask[fig.graph.find_edge(6, 7)] = 0;
  const CountingResult res =
      count_augmenting_paths(fig.graph, fig.side, fig.matching, 3, mask);
  EXPECT_EQ(res.total[7].to_u64(), 1u);
  EXPECT_EQ(res.total[8].to_u64(), 2u);
}

TEST(BipartiteCounting, ReusedCounterMatchesFreshPasses) {
  // One PathCounter re-run against changing matchings, lengths and
  // masks must reproduce a fresh pass every time, and its arrivals
  // c_v[i] must sum to n_v (X nodes: exactly one, from the mate).
  Rng rng(61);
  const auto bg = random_bipartite(40, 40, 0.1, rng);
  const Graph& g = bg.graph;
  const Matching greedy = greedy_mcm(g);
  Matching partial(g.num_nodes());
  for (EdgeId e : greedy.edge_ids(g)) {
    if (e % 3 != 0) partial.add(g, e);
  }
  std::vector<char> mask(g.num_edges(), 1);
  for (EdgeId e = 0; e < g.num_edges(); e += 5) mask[e] = 0;
  PathCounter counter(g, bg.side);
  struct Pass {
    const Matching* m;
    int len;
    const std::vector<char>* mask;
  };
  const std::vector<char> all;
  for (const Pass& p : {Pass{&partial, 5, &all}, Pass{&greedy, 7, &all},
                        Pass{&partial, 3, &mask}, Pass{&partial, 5, &all}}) {
    const CountingResult want =
        count_augmenting_paths(g, bg.side, *p.m, p.len, *p.mask);
    const CountingResult& got = counter.run(*p.m, p.len, *p.mask);
    EXPECT_EQ(got.depth, want.depth);
    EXPECT_EQ(got.total, want.total);
    EXPECT_EQ(got.endpoint, want.endpoint);
    EXPECT_EQ(got.stats.messages, want.stats.messages);
    EXPECT_EQ(got.stats.total_bits, want.stats.total_bits);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (got.depth[v] == kUnreached || got.depth[v] == 0) continue;
      BigCounter sum;
      std::size_t arrivals = 0;
      for (std::size_t i = 0; i < g.degree(v); ++i) {
        if (const BigCounter* c = counter.arrival(v, i)) {
          sum += *c;
          ++arrivals;
          if (bg.side[v] == 0) {
            EXPECT_EQ(g.neighbors(v)[i].edge, p.m->matched_edge(v));
          }
        }
      }
      EXPECT_EQ(sum, got.total[v]) << "v=" << v;
      if (bg.side[v] == 0) {
        EXPECT_EQ(arrivals, 1u) << "v=" << v;
      }
    }
  }
}

TEST(BipartiteCounting, RejectsBadArguments) {
  const auto fig = make_fig1();
  EXPECT_THROW(
      count_augmenting_paths(fig.graph, fig.side, fig.matching, 2, {}),
      std::invalid_argument);
  EXPECT_THROW(count_augmenting_paths(fig.graph, {0, 1}, fig.matching, 3, {}),
               std::invalid_argument);
}

// --------------------------------------------- Aug (Lemma 3.7 etc.) ---

class AugSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AugSweep, ProducesMaximalSetOfShortPaths) {
  Rng rng(GetParam());
  const auto bg = random_bipartite(30, 30, 0.1, rng);
  Matching m(bg.graph.num_nodes());
  for (const int l : {1, 3, 5}) {
    AugOptions opts;
    opts.seed = GetParam() * 7 + l;
    const AugResult res = bipartite_aug(bg.graph, bg.side, m, l, {}, opts);
    EXPECT_TRUE(res.converged);
    // Maximality: no augmenting path of length <= l remains.
    EXPECT_FALSE(has_augmenting_path_leq(bg.graph, m, l)) << "l=" << l;
    EXPECT_TRUE(is_valid_matching(bg.graph, m.edge_ids(bg.graph)));
  }
}

TEST_P(AugSweep, IterationCountStaysLogarithmic) {
  Rng rng(GetParam() ^ 0xbeef);
  const auto bg = random_bipartite(100, 100, 0.04, rng);
  Matching m(bg.graph.num_nodes());
  AugOptions opts;
  opts.seed = GetParam();
  const AugResult res = bipartite_aug(bg.graph, bg.side, m, 3, {}, opts);
  EXPECT_TRUE(res.converged);
  // W.h.p. O(log N); the auto cap is 64 + 16 log N, assert well within.
  EXPECT_LE(res.iterations, 120u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AugSweep,
                         ::testing::Values(31u, 37u, 41u, 43u, 47u));

TEST(BipartiteAug, LengthOneEqualsMaximalMatchingOnFreePairs) {
  const Graph g = complete_bipartite(6, 6);
  std::vector<std::uint8_t> side(12, 0);
  for (NodeId v = 6; v < 12; ++v) side[v] = 1;
  Matching m(12);
  AugOptions opts;
  opts.seed = 3;
  const AugResult res = bipartite_aug(g, side, m, 1, {}, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(m.size(), 6u);  // maximal on K_{6,6} = perfect
}

TEST(BipartiteAug, AppliedPathsAreCountedAndDisjoint) {
  const auto fig = make_fig1();
  Matching m = fig.matching;
  AugOptions opts;
  opts.seed = 5;
  const AugResult res = bipartite_aug(fig.graph, fig.side, m, 3, {}, opts);
  EXPECT_TRUE(res.converged);
  // The instance supports at most 2 disjoint augmenting paths of length
  // <= 3 (x2,x3 are shared bottlenecks); final matching size is 4:
  // the two original matched edges rewired plus both free X matched.
  EXPECT_EQ(m.size(), 4u);
  EXPECT_GE(res.paths_applied, 2u);
  EXPECT_FALSE(has_augmenting_path_leq(fig.graph, m, 3));
}

// ----------------------------------------- Theorem 3.8 driver ---------

class BipartiteMcmSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BipartiteMcmSweep, ApproximationGuarantee) {
  Rng rng(GetParam());
  const auto bg = random_bipartite(50, 50, 0.07, rng);
  BipartiteMcmOptions opts;
  opts.k = 3;
  opts.seed = GetParam() + 1;
  const BipartiteMcmResult res = bipartite_mcm(bg.graph, bg.side, opts);
  EXPECT_TRUE(res.converged);
  const std::size_t opt = hopcroft_karp(bg.graph, bg.side).size();
  // After phases l = 1,3,5: no augmenting path <= 5 => >= (1 - 1/4) opt
  // (Lemma 3.5 with shortest path >= 7 => k = 3 ... 1-1/(k+1) = 3/4).
  EXPECT_GE(4 * res.matching.size(), 3 * opt);
  EXPECT_FALSE(has_augmenting_path_leq(bg.graph, res.matching, 5));
}

TEST_P(BipartiteMcmSweep, CongestMessageBound) {
  Rng rng(GetParam() ^ 0x99);
  const auto bg = random_bipartite(40, 40, 0.1, rng);
  BipartiteMcmOptions opts;
  opts.k = 2;
  opts.seed = GetParam();
  const BipartiteMcmResult res = bipartite_mcm(bg.graph, bg.side, opts);
  // Messages: counts of O(l log Delta) bits + token values (64) + ids.
  const double log_delta = std::log2(bg.graph.max_degree() + 1.0);
  const double bound = 8 * (3 * log_delta + 64 + 16);
  EXPECT_LE(res.stats.max_message_bits, static_cast<std::uint64_t>(bound));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BipartiteMcmSweep,
                         ::testing::Values(51u, 53u, 59u, 61u));

TEST(BipartiteMcm, PerfectOnCompleteBipartite) {
  const Graph g = complete_bipartite(8, 8);
  std::vector<std::uint8_t> side(16, 0);
  for (NodeId v = 8; v < 16; ++v) side[v] = 1;
  BipartiteMcmOptions opts;
  opts.k = 2;
  opts.seed = 77;
  const BipartiteMcmResult res = bipartite_mcm(g, side, opts);
  // K_{8,8} has no augmenting path longer than 1 at a maximal matching
  // short of perfect; phases to l=3 suffice for perfection.
  EXPECT_EQ(res.matching.size(), 8u);
}

TEST(BipartiteMcm, EmptyGraph) {
  const BipartiteMcmResult res = bipartite_mcm(Graph(4, {}), {0, 0, 1, 1});
  EXPECT_EQ(res.matching.size(), 0u);
  EXPECT_TRUE(res.converged);
}

TEST(BipartiteMcm, LargeKGivesExactOptimum) {
  // With k large enough that 2k-1 exceeds every augmenting-path length,
  // the phase ladder terminates with NO augmenting path at all — i.e.,
  // the exact maximum matching (Berge). Strong end-to-end check.
  for (const std::uint64_t seed : {3u, 5u, 8u}) {
    Rng rng(seed);
    const auto bg = random_bipartite(18, 18, 0.15, rng);
    BipartiteMcmOptions opts;
    opts.k = 10;  // paths up to length 19 > any in a 36-node graph here
    opts.seed = seed;
    const BipartiteMcmResult res = bipartite_mcm(bg.graph, bg.side, opts);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.matching.size(), hopcroft_karp(bg.graph, bg.side).size());
  }
}

TEST(BipartiteAug, TightnessLadderIsExact) {
  // On the tight chain, an engine capped at 2k-1 is stuck at exactly
  // k/(k+1) of the optimum; the cap 2k+1 solves the instance. This is
  // the Lemma 3.5 boundary realized as an input.
  for (const int k : {2, 3, 4}) {
    const TightChain chain = tight_bipartite_chain(k, 8);
    Matching stuck = Matching::from_edges(chain.graph, chain.matched);
    AugOptions o;
    o.seed = 3;
    for (int l = 1; l <= 2 * k - 1; l += 2) {
      const AugResult res =
          bipartite_aug(chain.graph, chain.side, stuck, l, {}, o);
      EXPECT_TRUE(res.converged);
      EXPECT_EQ(res.paths_applied, 0u);  // nothing visible below 2k+1
    }
    EXPECT_EQ(stuck.size(), 8u * k);
    Matching solved = Matching::from_edges(chain.graph, chain.matched);
    const AugResult res =
        bipartite_aug(chain.graph, chain.side, solved, 2 * k + 1, {}, o);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(solved.size(), 8u * (k + 1));  // perfect
  }
}

}  // namespace
}  // namespace lps
