// Quickstart: compute a near-maximum matching of a random bipartite
// graph with the paper's CONGEST engine (Theorem 3.8) through the
// unified solver registry, and compare it to the exact Hopcroft-Karp
// optimum resolved through the same registry.
//
//   ./quickstart [--n 256] [--p 0.05] [--solver bipartite_mcm]
//                [--config k=3] [--seed 1] [--list]
//
// Demonstrates the registry-driven public API:
//   auto inst   = api::make_instance("bipartite:nx=128,ny=128,p=0.05", seed);
//   auto& s     = api::SolverRegistry::global().at("bipartite_mcm");
//   auto result = s.solve(inst, api::SolverConfig::parse("k=3"));
#include <cstdio>
#include <string>

#include "api/registry.hpp"
#include "api/runner.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) try {
  using namespace lps;
  const Args opts(argc, argv);
  const bool list = opts.get_bool("list", false);
  // Odd --n rounds down to an even node count; p's default tracks the
  // actual instance size, not the requested one.
  const long half =
      static_cast<long>(opts.get_count("n", 256, kInvalidNode - 1) / 2);
  const long n = 2 * half;
  const double p = opts.get_double("p", 8.0 / static_cast<double>(n));
  const std::string solver_name = opts.get("solver", "bipartite_mcm");
  // Empty config = every solver's own defaults (bipartite_mcm: k=3), so
  // --solver works for any registered name without a matching --config.
  const std::string config = opts.get("config", "");
  // The pre-registry interface took --k directly; keep honoring it (a
  // solver without a 'k' key will reject it loudly).
  const std::string k = opts.get("k", "");
  const std::uint64_t seed = opts.get_count("seed", 1, UINT64_MAX);
  opts.check_all_used();

  if (list) {
    std::printf("registered solvers:\n");
    for (const std::string& name : api::SolverRegistry::global().names()) {
      const api::MatchingSolver& s = api::SolverRegistry::global().at(name);
      std::printf("  %-22s %s\n", name.c_str(), s.description().c_str());
    }
    return 0;
  }

  if (n < 2) {
    std::fprintf(stderr, "quickstart: --n must be at least 2\n");
    return 1;
  }

  // %.17g, not std::to_string: the latter truncates to 6 decimals and
  // rounds small probabilities (p = 8/n for large n) down to zero.
  char p_str[32];
  std::snprintf(p_str, sizeof(p_str), "%.17g", p);
  const std::string generator = "bipartite:nx=" + std::to_string(half) +
                                ",ny=" + std::to_string(half) +
                                ",p=" + p_str;
  const api::Instance inst = api::make_instance(generator, seed);
  std::printf("graph: %s -> n=%u m=%u max_degree=%u\n", generator.c_str(),
              inst.graph().num_nodes(), inst.graph().num_edges(),
              inst.graph().max_degree());

  const api::MatchingSolver& solver =
      api::SolverRegistry::global().at(solver_name);
  api::SolverConfig cfg = api::SolverConfig::parse(config);
  if (opts.has("k")) cfg.set("k", k);
  // A seed= entry inside --config wins over the --seed flag.
  if (!cfg.seed_was_set()) cfg.seed(seed);
  const api::SolveResult res = solver.solve(inst, cfg);

  const api::MatchingSolver& oracle =
      api::SolverRegistry::global().at("hopcroft_karp");
  const std::size_t optimum =
      oracle.solve(inst, api::SolverConfig()).matching.size();

  std::printf("matching: |M| = %zu   exact |M*| = %zu   ratio = %.4f "
              "(guarantee %.4f)\n",
              res.matching.size(), optimum,
              optimum ? static_cast<double>(res.matching.size()) /
                            static_cast<double>(optimum)
                      : 1.0,
              solver.guarantee(cfg));
  std::printf("cost: %llu synchronous rounds, %llu messages, "
              "max message = %llu bits (CONGEST), %.2f ms wall\n",
              static_cast<unsigned long long>(res.stats.rounds),
              static_cast<unsigned long long>(res.stats.messages),
              static_cast<unsigned long long>(res.stats.max_message_bits),
              res.wall_ms);
  for (const auto& [key, value] : res.metrics) {
    std::printf("  %s = %g\n", key.c_str(), value);
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return lps::reject_input("quickstart", e);
}
