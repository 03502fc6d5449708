#include "core/general_mcm.hpp"

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace lps {

std::uint64_t general_mcm_paper_budget(int k) {
  const double budget = std::pow(2.0, 2 * k + 1) *
                        (static_cast<double>(k) + 1.0) *
                        std::log(static_cast<double>(k));
  return static_cast<std::uint64_t>(std::ceil(budget));
}

GeneralMcmResult general_mcm(const Graph& g, const GeneralMcmOptions& opts) {
  if (opts.k < 2) {
    throw std::invalid_argument("general_mcm: k must be >= 2");
  }
  const NodeId n = g.num_nodes();
  const int l = 2 * opts.k - 1;

  GeneralMcmResult result;
  result.matching = Matching(n);
  result.paper_budget = general_mcm_paper_budget(opts.k);

  std::uint64_t budget = opts.max_iterations != 0 ? opts.max_iterations
                                                  : result.paper_budget;
  const std::uint64_t empty_streak_stop =
      opts.empty_streak_stop != 0
          ? opts.empty_streak_stop
          : (std::uint64_t{1} << (2 * opts.k + 1));

  std::vector<std::uint8_t> color(n, 0);
  std::vector<char> active_edge(g.num_edges(), 0);
  std::uint64_t empty_streak = 0;

  for (std::uint64_t iter = 0; iter < budget; ++iter) {
    // Line 3: every node colors itself red (0) or blue (1) uniformly.
    // Each node then tells its neighbors its color — one round, one bit
    // per message (accounted below); the colors themselves come from
    // per-(seed, iteration, node) substreams so the execution is
    // deterministic and order-independent.
    for (NodeId v = 0; v < n; ++v) {
      color[v] = Rng::substream(opts.seed, iter, std::uint64_t{v}).coin()
                     ? 1
                     : 0;
    }
    NetStats color_round;
    color_round.rounds = 1;
    color_round.note_messages(2 * std::uint64_t{g.num_edges()}, 1);
    result.stats.merge(color_round);

    // Line 4: Ĝ. A vertex is in V̂ iff free or matched bichromatically;
    // an edge is in Ê iff bichromatic with both endpoints in V̂.
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& ed = g.edge(e);
      if (color[ed.u] == color[ed.v]) {
        active_edge[e] = 0;
        continue;
      }
      auto in_v_hat = [&](NodeId v) {
        if (result.matching.is_free(v)) return true;
        const Edge& me = g.edge(result.matching.matched_edge(v));
        return color[me.u] != color[me.v];
      };
      active_edge[e] = in_v_hat(ed.u) && in_v_hat(ed.v) ? 1 : 0;
    }

    // Line 5-6: P <- Aug(Ĝ, M, 2k-1); M <- M ⊕ P. Side 0 = red.
    AugOptions aug_opts;
    aug_opts.seed = splitmix64(opts.seed ^ (iter * 0xc2b2ae3d27d4eb4fULL));
    aug_opts.max_iterations = opts.max_aug_iterations;
    aug_opts.exec = opts.exec;
    AugResult aug =
        bipartite_aug(g, color, result.matching, l, active_edge, aug_opts);
    result.stats.merge(aug.stats);
    result.paths_applied += aug.paths_applied;
    ++result.iterations;

    if (opts.mode == GeneralMcmOptions::Mode::kAdaptive) {
      if (opts.oracle_optimum_size > 0) {
        const double target = (1.0 - 1.0 / static_cast<double>(opts.k)) *
                              static_cast<double>(opts.oracle_optimum_size);
        if (static_cast<double>(result.matching.size()) >= target) {
          result.stopped_early = true;
          break;
        }
      }
      empty_streak = aug.paths_applied == 0 ? empty_streak + 1 : 0;
      if (empty_streak >= empty_streak_stop) {
        result.stopped_early = true;
        break;
      }
    }
  }
  return result;
}

}  // namespace lps
