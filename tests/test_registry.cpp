// The unified solver registry: every src/core and src/seq algorithm is
// reachable by name, runs on shared instances through the uniform
// solve() interface, produces valid matchings, and meets its stated
// approximation guarantee against the exact src/seq oracles
// (hopcroft_karp / blossom / hungarian / exact_*_small). Also covers
// the config key validation, capability mismatch errors, and the
// data-driven runner (generator specs, oracle resolution, JSON).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "api/registry.hpp"
#include "api/runner.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "seq/blossom.hpp"
#include "seq/exact_small.hpp"
#include "seq/hopcroft_karp.hpp"
#include "seq/hungarian.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

using api::Capabilities;
using api::Instance;
using api::MatchingSolver;
using api::SolveResult;
using api::SolverConfig;
using api::SolverRegistry;

Instance small_bipartite(std::uint64_t seed, bool weighted) {
  Rng rng(seed);
  // 30 nodes total: the exhaustive exact_*_small solvers cap at n <= 30.
  BipartiteGraph bg = random_bipartite(15, 15, 0.25, rng);
  if (!weighted) {
    Instance inst = Instance::unweighted(std::move(bg.graph));
    inst.with_side(std::move(bg.side));
    return inst;
  }
  auto w = uniform_weights(bg.graph.num_edges(), 1.0, 64.0, rng);
  Instance inst =
      Instance::weighted(make_weighted(std::move(bg.graph), std::move(w)));
  inst.with_side(std::move(bg.side));
  return inst;
}

Instance small_general(std::uint64_t seed, bool weighted) {
  Rng rng(seed);
  Graph g = erdos_renyi(16, 0.35, rng);
  if (!weighted) return Instance::unweighted(std::move(g));
  auto w = uniform_weights(g.num_edges(), 1.0, 64.0, rng);
  return Instance::weighted(make_weighted(std::move(g), std::move(w)));
}

/// Exact optimum of the instance's objective via the src/seq oracles.
double exact_optimum(const Instance& inst) {
  if (inst.has_weights()) {
    const auto side = inst.bipartition();
    const Matching opt = side ? hungarian_mwm(inst.weighted_graph(), *side)
                              : exact_mwm_small(inst.weighted_graph());
    return opt.weight(inst.weighted_graph());
  }
  const auto side = inst.bipartition();
  const Matching opt =
      side ? hopcroft_karp(inst.graph(), *side) : blossom_mcm(inst.graph());
  return static_cast<double>(opt.size());
}

double objective(const Instance& inst, const Matching& m) {
  return inst.has_weights() ? m.weight(inst.weighted_graph())
                            : static_cast<double>(m.size());
}

// ----------------------------------------------------------- registry --

TEST(Registry, EveryCoreAndSeqAlgorithmIsRegistered) {
  const std::set<std::string> expected = {
      // src/core
      "israeli_itai", "generic_mcm", "bipartite_mcm", "general_mcm",
      "hoepman_mwm", "class_mwm", "weighted_mwm", "local_mwm",
      "pipelined_max",
      // src/seq
      "greedy_mcm", "greedy_mwm", "locally_heaviest_mwm", "hopcroft_karp",
      "blossom", "hungarian", "exact_mcm_small", "exact_mwm_small",
      // src/lca (the rank-greedy oracle's global companion)
      "rank_greedy_mcm"};
  const auto names = SolverRegistry::global().names();
  const std::set<std::string> actual(names.begin(), names.end());
  EXPECT_EQ(actual, expected);
  for (const std::string& name : names) {
    const MatchingSolver& s = SolverRegistry::global().at(name);
    EXPECT_EQ(s.name(), name);
    EXPECT_FALSE(s.description().empty()) << name;
    const Capabilities caps = s.capabilities();
    EXPECT_TRUE(caps.bipartite || caps.general) << name;
  }
}

TEST(Registry, UnknownSolverThrowsWithNameList) {
  try {
    SolverRegistry::global().at("no_such_solver");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bipartite_mcm"), std::string::npos);
  }
  EXPECT_EQ(SolverRegistry::global().find("no_such_solver"), nullptr);
}

TEST(Registry, DuplicateRegistrationThrows) {
  SolverRegistry local;
  api::register_builtin_solvers(local);
  EXPECT_EQ(local.size(), SolverRegistry::global().size());
  EXPECT_THROW(api::register_builtin_solvers(local), std::invalid_argument);
}

TEST(Registry, UnknownConfigKeyIsRejected) {
  const Instance inst = small_bipartite(1, false);
  const MatchingSolver& s = SolverRegistry::global().at("bipartite_mcm");
  EXPECT_THROW(s.solve(inst, SolverConfig::parse("kk=3")),
               std::invalid_argument);
  EXPECT_NO_THROW(s.solve(inst, SolverConfig::parse("k=3")));
}

TEST(Registry, WeightedSolverRequiresWeights) {
  const Instance inst = small_bipartite(2, false);
  EXPECT_THROW(
      SolverRegistry::global().at("hungarian").solve(inst, SolverConfig()),
      std::invalid_argument);
}

TEST(Registry, BipartiteOnlySolverRejectsOddCycle) {
  const Instance inst = Instance::unweighted(cycle_graph(9));
  EXPECT_THROW(
      SolverRegistry::global().at("bipartite_mcm").solve(inst, SolverConfig()),
      std::invalid_argument);
  EXPECT_THROW(
      SolverRegistry::global().at("hopcroft_karp").solve(inst, SolverConfig()),
      std::invalid_argument);
}

// --------------------------- every solver on shared small instances --

TEST(Registry, EverySolverSolvesBipartiteInstancesWithinGuarantee) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    for (const bool weighted : {false, true}) {
      const Instance inst = small_bipartite(seed, weighted);
      const double opt = exact_optimum(inst);
      for (const std::string& name : SolverRegistry::global().names()) {
        const MatchingSolver& s = SolverRegistry::global().at(name);
        const Capabilities caps = s.capabilities();
        if (caps.primitive) continue;           // pipelined_max: below
        if (caps.weighted != weighted) continue;
        SolverConfig cfg;
        cfg.seed(seed + 7);
        const SolveResult res = s.solve(inst, cfg);
        const auto ids = res.matching.edge_ids(inst.graph());
        EXPECT_TRUE(is_valid_matching(inst.graph(), ids)) << name;
        if (caps.maximal) {
          EXPECT_TRUE(is_maximal_matching(inst.graph(), res.matching))
              << name;
        }
        if (opt > 0) {
          const double ratio = objective(inst, res.matching) / opt;
          EXPECT_GE(ratio, s.guarantee(cfg) - 1e-9)
              << name << " seed " << seed;
          EXPECT_LE(ratio, 1.0 + 1e-9) << name << " seed " << seed;
          if (caps.exact) {
            EXPECT_NEAR(ratio, 1.0, 1e-9) << name << " seed " << seed;
          }
        }
        EXPECT_GE(res.wall_ms, 0.0) << name;
        if (caps.distributed) {
          EXPECT_GT(res.stats.rounds, 0u) << name;
        }
      }
    }
  }
}

TEST(Registry, EveryGeneralSolverSolvesGeneralInstancesWithinGuarantee) {
  for (const std::uint64_t seed : {5u, 23u}) {
    for (const bool weighted : {false, true}) {
      const Instance inst = small_general(seed, weighted);
      const double opt = exact_optimum(inst);
      for (const std::string& name : SolverRegistry::global().names()) {
        const MatchingSolver& s = SolverRegistry::global().at(name);
        const Capabilities caps = s.capabilities();
        if (caps.primitive || !caps.general) continue;
        if (caps.weighted != weighted) continue;
        SolverConfig cfg;
        cfg.seed(seed + 11);
        const SolveResult res = s.solve(inst, cfg);
        EXPECT_TRUE(is_valid_matching(inst.graph(),
                                      res.matching.edge_ids(inst.graph())))
            << name;
        if (opt > 0) {
          const double ratio = objective(inst, res.matching) / opt;
          EXPECT_GE(ratio, s.guarantee(cfg) - 1e-9)
              << name << " seed " << seed;
        }
      }
    }
  }
}

TEST(Registry, PipelinedMaxPrimitiveReportsTreeMaximum) {
  Rng rng(13);
  const Instance inst = Instance::unweighted(random_tree(40, rng));
  NodeId max_degree = 0;
  for (NodeId v = 0; v < inst.graph().num_nodes(); ++v) {
    max_degree = std::max(max_degree, inst.graph().degree(v));
  }
  const MatchingSolver& s = SolverRegistry::global().at("pipelined_max");
  const SolveResult res = s.solve(inst, SolverConfig::parse("chunk_bits=4"));
  EXPECT_EQ(res.matching.size(), 0u);
  ASSERT_TRUE(res.metrics.count("maximum"));
  EXPECT_DOUBLE_EQ(res.metrics.at("maximum"),
                   static_cast<double>(max_degree));
  EXPECT_GT(res.stats.rounds, 0u);
}

// ------------------------------------------------------ SolverConfig --

TEST(SolverConfigTest, ParseAndTypedAccess) {
  const SolverConfig cfg =
      SolverConfig::parse("k=3,eps=0.25,mode=paper,flag,seed=42");
  const Args args = cfg.args();
  EXPECT_EQ(args.get_count("k", 0, 10), 3u);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 0.25);
  EXPECT_EQ(args.get("mode", ""), "paper");
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(cfg.seed(), 42u);
  EXPECT_FALSE(args.has("seed"));  // routed to the seed field, not the map
  EXPECT_EQ(args.get_count("absent", 7, 10), 7u);
}

TEST(SolverConfigTest, MalformedSpecsThrow) {
  EXPECT_THROW(SolverConfig::parse("=3"), std::invalid_argument);
  EXPECT_THROW(SolverConfig::parse("k=1,k=2"), std::invalid_argument);
  const SolverConfig cfg = SolverConfig::parse("k=abc");
  EXPECT_THROW(cfg.args().get_count("k", 0, UINT64_MAX),
               std::invalid_argument);
}

TEST(SolverConfigTest, CountsAndSeedsRejectWrapping) {
  const SolverConfig cfg = SolverConfig::parse(
      "k=4294967299,cap=-1,big=18446744073709551615");
  const Args args = cfg.args();
  EXPECT_EQ(args.get_count("big", 0, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(args.get_count("absent", 7, UINT64_MAX), 7u);
  EXPECT_THROW(args.get_count("k", 3, 1000), std::invalid_argument);
  EXPECT_THROW(args.get_count("cap", 0, UINT64_MAX), std::invalid_argument);
  EXPECT_EQ(SolverConfig::parse("seed=18446744073709551615").seed(),
            UINT64_MAX);
  EXPECT_THROW(SolverConfig::parse("seed=-1"), std::invalid_argument);
  EXPECT_THROW(SolverConfig::parse("seed=18446744073709551616"),
               std::invalid_argument);
}

TEST(SolverConfigTest, OutOfRangeIntegerKeysAreRejected) {
  // Every integer key reaches its option struct through get_count: a
  // value the field cannot hold throws instead of running as a wrapped
  // budget under the typed value's echo.
  const SolverRegistry& reg = SolverRegistry::global();
  const Instance inst = Instance::unweighted(path_graph(8));
  const std::pair<const char*, const char*> cases[] = {
      {"bipartite_mcm", "k=4294967299"},
      {"bipartite_mcm", "max_iterations_per_phase=-1"},
      {"general_mcm", "k=29"},
      {"general_mcm", "max_aug_iterations=-1"},
      {"israeli_itai", "max_phases=-1"},
      // Past the int32 phase index its LCA oracle shares.
      {"israeli_itai", "max_phases=2147483648"},
      {"generic_mcm", "max_conflict_nodes=-1"},
      {"pipelined_max", "chunk_bits=4294967304"},
  };
  for (const auto& [solver, config] : cases) {
    const SolverConfig cfg = SolverConfig::parse(config);
    EXPECT_THROW(reg.at(solver).solve(inst, cfg), std::invalid_argument)
        << solver << " " << config;
  }
}

TEST(SolverConfigTest, ToStringIsCanonical) {
  SolverConfig cfg = SolverConfig::parse("k=3,eps=0.5");
  cfg.seed(9);
  EXPECT_EQ(cfg.to_string(), "eps=0.5,k=3,seed=9");
}

// ------------------------------------------------------------ runner --

TEST(Runner, MakeInstanceParsesFamilies) {
  const Instance er = api::make_instance("er:n=32,deg=4", 1);
  EXPECT_EQ(er.graph().num_nodes(), 32u);
  EXPECT_FALSE(er.has_weights());

  const Instance bip =
      api::make_instance("bipartite:nx=8,ny=8,p=0.5,w=uniform,wlo=1,whi=9", 2);
  EXPECT_EQ(bip.graph().num_nodes(), 16u);
  EXPECT_TRUE(bip.has_weights());
  ASSERT_TRUE(bip.side().has_value());

  const Instance grid = api::make_instance("grid:rows=3,cols=4", 3);
  EXPECT_EQ(grid.graph().num_nodes(), 12u);
  // The generator attaches the parity side; it must properly 2-color.
  ASSERT_TRUE(grid.side().has_value());
  for (const Edge& e : grid.graph().edges()) {
    EXPECT_NE((*grid.side())[e.u], (*grid.side())[e.v]);
  }

  const Instance trap = api::make_instance("greedy_trap:gadgets=4", 4);
  EXPECT_TRUE(trap.has_weights());
  EXPECT_EQ(trap.graph().num_nodes(), 16u);

  // Same spec + same seed => identical instance.
  const Instance a = api::make_instance("er:n=20,p=0.3", 7);
  const Instance b = api::make_instance("er:n=20,p=0.3", 7);
  EXPECT_EQ(a.graph().edges(), b.graph().edges());
}

TEST(Runner, MakeInstanceRejectsBadSpecs) {
  EXPECT_THROW(api::make_instance("warp:n=8", 1), std::invalid_argument);
  EXPECT_THROW(api::make_instance("er:deg=4", 1), std::invalid_argument);
  EXPECT_THROW(api::make_instance("er:n=8,bogus=1", 1),
               std::invalid_argument);
  EXPECT_THROW(api::make_instance("er:n=8,w=nope", 1), std::invalid_argument);
}

TEST(Runner, RunOneResolvesOracleAndAuditsResult) {
  api::RunSpec spec;
  spec.generator = "bipartite:nx=12,ny=12,p=0.3";
  spec.solver = "bipartite_mcm";
  spec.config = "k=3";
  spec.instance_seed = 5;
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.spec.solver, "bipartite_mcm");
  EXPECT_EQ(res.oracle_solver, "hopcroft_karp");
  EXPECT_EQ(res.optimum_kind, "exact");
  EXPECT_TRUE(res.valid);
  EXPECT_GE(res.ratio, res.guarantee);
  EXPECT_LE(res.ratio, 1.0 + 1e-9);
  EXPECT_GT(res.net.rounds, 0u);
}

TEST(Runner, FeedOraclePassesOptimumThroughConfig) {
  api::RunSpec spec;
  spec.generator = "er:n=40,deg=4";
  spec.solver = "general_mcm";
  spec.config = "k=3";
  spec.instance_seed = 9;
  spec.feed_oracle = true;
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.oracle_solver, "blossom");
  // The certified early exit stops as soon as the (1-1/k) target is met.
  ASSERT_TRUE(res.metrics.count("stopped_early"));
  EXPECT_GE(res.ratio, 1.0 - 1.0 / 3.0);
}

TEST(Runner, WeightedOracleFallsBackToCertifiedBound) {
  api::RunSpec spec;
  spec.generator = "er:n=60,deg=5,w=uniform,wlo=1,whi=10";
  spec.solver = "greedy_mwm";
  spec.instance_seed = 11;
  const api::RunResult res = api::run_one(spec);
  // Non-bipartite, n > 20: certified 2x-greedy upper bound.
  EXPECT_EQ(res.optimum_kind, "upper_bound");
  EXPECT_EQ(res.oracle_solver, "greedy_mwm");
  EXPECT_GE(res.ratio, 0.5 - 1e-9);  // greedy vs 2x itself is exactly 1/2
}

TEST(Runner, ExplicitApproximateOracleScalesByItsGuarantee) {
  api::RunSpec spec;
  spec.generator = "er:n=24,deg=4,w=uniform,wlo=1,whi=10";
  spec.solver = "greedy_mwm";
  spec.oracle = "hoepman_mwm";  // guarantee 1/2 -> bound = 2x its weight
  spec.instance_seed = 13;
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.optimum_kind, "upper_bound");
  EXPECT_GT(res.optimum, 0.0);
  // A solver with no stated guarantee certifies nothing.
  spec.oracle = "class_mwm";
  const api::RunResult ref = api::run_one(spec);
  EXPECT_EQ(ref.optimum_kind, "reference");
  // An oracle in the wrong objective certifies nothing either: the
  // Hopcroft-Karp (cardinality) optimum is no weight bound.
  spec.oracle = "hopcroft_karp";
  EXPECT_THROW(api::run_one(spec), std::invalid_argument);
  // Nor does a primitive, whose matching is always empty.
  spec.oracle = "pipelined_max";
  EXPECT_THROW(api::run_one(spec), std::invalid_argument);
}

TEST(Runner, PrimitiveSolverSkipsOracleAndRatio) {
  api::RunSpec spec;
  spec.generator = "tree:n=25";
  spec.solver = "pipelined_max";
  spec.config = "chunk_bits=4";
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.oracle_solver, "");
  EXPECT_EQ(res.optimum_kind, "none");
  EXPECT_EQ(res.ratio, -1.0);
  EXPECT_TRUE(res.metrics.count("maximum"));
}

TEST(Runner, NegativeGeneratorSizesAreRejected) {
  EXPECT_THROW(api::make_instance("er:n=-5,deg=4", 1), std::invalid_argument);
  EXPECT_THROW(api::make_instance("grid:rows=3,cols=-1", 1),
               std::invalid_argument);
}

TEST(Runner, WeightBlindSolverIsMeasuredInCardinality) {
  api::RunSpec spec;
  spec.generator = "bipartite:nx=30,ny=30,deg=4,w=exp,wmean=8";
  spec.solver = "israeli_itai";  // weight-blind, guarantee 1/2
  spec.instance_seed = 2;
  const api::RunResult res = api::run_one(spec);
  // The oracle must be the cardinality optimum, not Hungarian: a
  // maximal matching is always >= 1/2 of |M*| but can be < 1/2 of
  // w(M*).
  EXPECT_EQ(res.oracle_solver, "hopcroft_karp");
  EXPECT_GE(res.ratio, res.guarantee - 1e-9);
}

TEST(Runner, FeedOracleOnWeightedInstanceUsesCardinalityOptimum) {
  api::RunSpec spec;
  spec.generator = "er:n=40,deg=4,w=uniform,wlo=1,whi=9";
  spec.solver = "general_mcm";  // weight-blind
  spec.config = "k=3";
  spec.instance_seed = 9;
  spec.feed_oracle = true;
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.oracle_solver, "blossom");
  EXPECT_GE(res.ratio, 1.0 - 1.0 / 3.0);
}

TEST(Runner, ConflictingDensityKeysAreRejected) {
  EXPECT_THROW(api::make_instance("er:n=32,p=0.1,deg=4", 1),
               std::invalid_argument);
  EXPECT_THROW(api::make_instance("bipartite:nx=8,ny=8,p=0.1,deg=2", 1),
               std::invalid_argument);
}

TEST(Runner, ConfigSeedEntryWinsOverRunSpecDefault) {
  api::RunSpec spec;
  spec.generator = "bipartite:nx=10,ny=10,p=0.3";
  spec.solver = "israeli_itai";
  spec.config = "seed=42";
  spec.solver_seed = 7;  // must lose to the explicit config seed
  const api::RunResult with_config_seed = api::run_one(spec);
  spec.config = "";
  spec.solver_seed = 42;
  const api::RunResult with_spec_seed = api::run_one(spec);
  EXPECT_EQ(with_config_seed.matching_size, with_spec_seed.matching_size);
  EXPECT_EQ(with_config_seed.net.messages, with_spec_seed.net.messages);
}

TEST(Runner, ExactSolverIsItsOwnOracleWithoutASecondSolve) {
  api::RunSpec spec;
  spec.generator = "bipartite:nx=12,ny=12,p=0.3";
  spec.solver = "hopcroft_karp";
  spec.instance_seed = 4;
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.oracle_solver, "hopcroft_karp");
  EXPECT_EQ(res.optimum_kind, "exact");
  EXPECT_DOUBLE_EQ(res.ratio, 1.0);
  EXPECT_EQ(res.optimum, static_cast<double>(res.matching_size));
}

TEST(Runner, WeightedSolverOnUnweightedInstanceFailsBeforeOracle) {
  api::RunSpec spec;
  spec.generator = "er:n=24,deg=4";
  spec.solver = "greedy_mwm";
  EXPECT_THROW(api::run_one(spec), std::invalid_argument);
}

TEST(Runner, ZeroEdgeWeightedSpecStaysWeighted) {
  const Instance inst = api::make_instance("bipartite:nx=4,ny=4,p=0,w=uniform", 1);
  EXPECT_EQ(inst.graph().num_edges(), 0u);
  EXPECT_TRUE(inst.has_weights());
  // Weighted solvers must accept it and record the trivial result
  // instead of throwing "requires edge weights" mid-sweep.
  api::RunSpec spec;
  spec.generator = "bipartite:nx=4,ny=4,p=0,w=uniform";
  spec.solver = "greedy_mwm";
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.matching_size, 0u);
  EXPECT_TRUE(res.valid);
}

TEST(Registry, PipelinedMaxRejectsOutOfRangeRoot) {
  Rng rng(3);
  const Instance inst = Instance::unweighted(random_tree(25, rng));
  const MatchingSolver& s = SolverRegistry::global().at("pipelined_max");
  EXPECT_THROW(s.solve(inst, SolverConfig::parse("root=1000")),
               std::invalid_argument);
  EXPECT_THROW(s.solve(inst, SolverConfig::parse("root=-1")),
               std::invalid_argument);
  EXPECT_NO_THROW(s.solve(inst, SolverConfig::parse("root=24")));
}

TEST(Runner, JsonFileStemIncludesConfig) {
  api::RunSpec spec;
  spec.generator = "grid:rows=4,cols=4";
  spec.solver = "bipartite_mcm";
  spec.instance_seed = 3;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lps_stem_test").string();
  spec.config = "k=2";
  const std::string p2 = api::write_json(api::run_one(spec), dir);
  spec.config = "k=3";
  const std::string p3 = api::write_json(api::run_one(spec), dir);
  EXPECT_NE(p2, p3);
  EXPECT_TRUE(std::filesystem::exists(p2));
  EXPECT_TRUE(std::filesystem::exists(p3));
  std::filesystem::remove_all(dir);
}

TEST(Runner, JsonRecordRoundTripsKeyFields) {
  api::RunSpec spec;
  spec.generator = "grid:rows=4,cols=4";
  spec.solver = "israeli_itai";
  spec.instance_seed = 3;
  const api::RunResult res = api::run_one(spec);
  const std::string json = res.to_json();
  EXPECT_NE(json.find("\"solver\": \"israeli_itai\""), std::string::npos);
  EXPECT_NE(json.find("\"generator\": \"grid:rows=4,cols=4\""),
            std::string::npos);
  EXPECT_NE(json.find("\"valid\": true"), std::string::npos);
  EXPECT_NE(json.find("\"rounds\": "), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  const std::string dir =
      (std::filesystem::temp_directory_path() / "lps_runner_test").string();
  const std::string path = api::write_json(res, dir);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buffer;
  buffer << is.rdbuf();
  EXPECT_EQ(buffer.str(), json + "\n");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lps
