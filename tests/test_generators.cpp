// Satellite coverage for graph::generators through the runner's
// generator-spec front door: fixed-seed determinism (including across
// runner thread counts — instance construction must never depend on
// the pool), and per-family shape sanity (edge counts, degrees, sides).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

const std::vector<std::string>& all_specs() {
  static const std::vector<std::string> specs = {
      "path:n=17",
      "cycle:n=12",
      "complete:n=9",
      "star:n=10",
      "binary_tree:n=15",
      "tree:n=40",
      "grid:rows=5,cols=7",
      "complete_bipartite:a=4,b=6",
      "er:n=100,p=0.1",
      "er:n=100,deg=4",
      "bipartite:nx=30,ny=40,deg=3",
      "bipartite_regular:nx=20,ny=30,d=4",
      "regular:n=24,d=4",
      "tight_chain:k=2,copies=3",
      "greedy_trap:gadgets=4",
      "increasing_path:n=9",
      "er:n=64,deg=4,w=uniform,wlo=1,whi=9",
      "regular:n=16,d=3,w=pow2,wlevels=5",
  };
  return specs;
}

void expect_same_instance(const api::Instance& a, const api::Instance& b,
                          const std::string& spec) {
  ASSERT_EQ(a.graph().num_nodes(), b.graph().num_nodes()) << spec;
  ASSERT_EQ(a.graph().num_edges(), b.graph().num_edges()) << spec;
  for (EdgeId e = 0; e < a.graph().num_edges(); ++e) {
    ASSERT_EQ(a.graph().edge(e), b.graph().edge(e)) << spec << " edge " << e;
  }
  ASSERT_EQ(a.has_weights(), b.has_weights()) << spec;
  if (a.has_weights()) {
    ASSERT_EQ(a.weighted_graph().weights, b.weighted_graph().weights) << spec;
  }
  ASSERT_EQ(a.side().has_value(), b.side().has_value()) << spec;
  if (a.side().has_value()) {
    ASSERT_EQ(*a.side(), *b.side()) << spec;
  }
}

TEST(Generators, DeterministicForFixedSeed) {
  for (const std::string& spec : all_specs()) {
    for (const std::uint64_t seed : {1ull, 42ull, 977ull}) {
      expect_same_instance(api::make_instance(spec, seed),
                           api::make_instance(spec, seed), spec);
    }
  }
}

TEST(Generators, SeedActuallyMatters) {
  // Randomized families must differ across seeds (deterministic
  // families like path/grid legitimately do not).
  for (const std::string& spec :
       {std::string("er:n=100,p=0.1"), std::string("tree:n=40"),
        std::string("bipartite:nx=30,ny=40,deg=3"),
        std::string("regular:n=24,d=4")}) {
    const api::Instance a = api::make_instance(spec, 1);
    const api::Instance b = api::make_instance(spec, 2);
    bool differs = a.graph().num_edges() != b.graph().num_edges();
    for (EdgeId e = 0; !differs && e < a.graph().num_edges(); ++e) {
      differs = !(a.graph().edge(e) == b.graph().edge(e));
    }
    EXPECT_TRUE(differs) << spec;
  }
}

/// The runner's thread knob parallelizes the solve, never the instance:
/// the same spec+seed must produce identical instances and identical
/// deterministic-solver results at any thread count.
TEST(Generators, InstanceIndependentOfThreadCount) {
  for (const std::string& spec :
       {std::string("er:n=128,deg=4"), std::string("regular:n=64,d=4")}) {
    api::RunSpec one;
    one.generator = spec;
    one.solver = "greedy_mcm";
    one.oracle = "none";
    one.instance_seed = 31;
    one.threads = 1;
    api::RunSpec four = one;
    four.threads = 4;
    const api::RunResult r1 = api::run_one(one);
    const api::RunResult r4 = api::run_one(four);
    EXPECT_EQ(r1.n, r4.n) << spec;
    EXPECT_EQ(r1.m, r4.m) << spec;
    EXPECT_EQ(r1.max_degree, r4.max_degree) << spec;
    EXPECT_EQ(r1.matching_size, r4.matching_size) << spec;
  }
}

TEST(Generators, ShapeSanityPerFamily) {
  const auto inst = [](const std::string& spec) {
    return api::make_instance(spec, 7);
  };
  // Closed-form families.
  EXPECT_EQ(inst("path:n=17").graph().num_edges(), 16u);
  EXPECT_EQ(inst("cycle:n=12").graph().num_edges(), 12u);
  EXPECT_EQ(inst("complete:n=9").graph().num_edges(), 36u);
  EXPECT_EQ(inst("star:n=10").graph().num_edges(), 9u);
  EXPECT_EQ(inst("star:n=10").graph().max_degree(), 9u);
  EXPECT_EQ(inst("binary_tree:n=15").graph().num_edges(), 14u);
  // grid rows=5, cols=7: 5*6 horizontal + 4*7 vertical.
  EXPECT_EQ(inst("grid:rows=5,cols=7").graph().num_edges(), 58u);
  EXPECT_EQ(inst("complete_bipartite:a=4,b=6").graph().num_edges(), 24u);
  EXPECT_EQ(inst("increasing_path:n=9").graph().num_edges(), 8u);
  // The default deg=4 is above n - 1: the complete graph.
  EXPECT_EQ(inst("er:n=3").graph().num_edges(), 3u);

  // Random tree: n-1 edges, single component.
  {
    const api::Instance t = inst("tree:n=40");
    EXPECT_EQ(t.graph().num_edges(), 39u);
    const auto comp = t.graph().components();
    for (const NodeId c : comp) EXPECT_EQ(c, 0u);
  }
  // Exact regularity.
  {
    const api::Instance r = inst("regular:n=24,d=4");
    for (NodeId v = 0; v < r.graph().num_nodes(); ++v) {
      EXPECT_EQ(r.graph().degree(v), 4u) << "vertex " << v;
    }
  }
  // Left-regular bipartite: left degree exactly d, side attached.
  {
    const api::Instance b = inst("bipartite_regular:nx=20,ny=30,d=4");
    ASSERT_TRUE(b.side().has_value());
    EXPECT_EQ(b.graph().num_edges(), 80u);
    for (NodeId v = 0; v < 20; ++v) {
      EXPECT_EQ((*b.side())[v], 0u);
      EXPECT_EQ(b.graph().degree(v), 4u);
    }
  }
  // er edge-count concentration: E[m] = deg * n / 2 = 200 for n=100,
  // deg=4; a 3-sigma-ish band is [120, 280].
  {
    const api::Instance e = inst("er:n=100,deg=4");
    EXPECT_GE(e.graph().num_edges(), 120u);
    EXPECT_LE(e.graph().num_edges(), 280u);
  }
  // Bipartite er: every edge crosses the side.
  {
    const api::Instance b = inst("bipartite:nx=30,ny=40,deg=3");
    ASSERT_TRUE(b.side().has_value());
    for (const Edge& e : b.graph().edges()) {
      EXPECT_NE((*b.side())[e.u], (*b.side())[e.v]);
    }
  }
  // Weight models: in-range, positive.
  {
    const api::Instance w = inst("er:n=64,deg=4,w=uniform,wlo=1,whi=9");
    ASSERT_TRUE(w.has_weights());
    for (const double x : w.weighted_graph().weights) {
      EXPECT_GE(x, 1.0);
      EXPECT_LE(x, 9.0);
    }
  }
}

TEST(Generators, NanDensityThrowsInsteadOfLooping) {
  // Below the spec layer's range check: the pair sampler itself refuses
  // a NaN probability rather than skipping forward forever.
  Rng rng(5);
  EXPECT_THROW(erdos_renyi(100, std::nan(""), rng), std::invalid_argument);
  EXPECT_THROW(random_bipartite(50, 50, std::nan(""), rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace lps
