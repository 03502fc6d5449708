#include "core/weighted_mwm.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/class_mwm.hpp"
#include "core/gain.hpp"
#include "runtime/simd.hpp"
#include "seq/greedy.hpp"
#include "util/rng.hpp"

namespace lps {

namespace {

/// The default black box: class_mwm (distributed, constant delta).
MwmBlackBox class_mwm_black_box(const ExecContext& exec) {
  return [exec](const WeightedGraph& wg, std::uint64_t seed,
                NetStats* stats) {
    ClassMwmOptions opts;
    opts.seed = seed;
    opts.exec = exec;
    ClassMwmResult res = class_mwm(wg, opts);
    if (stats != nullptr) stats->merge(res.stats);
    return std::move(res.matching);
  };
}

}  // namespace

MwmBlackBox greedy_black_box() {
  return [](const WeightedGraph& wg, std::uint64_t, NetStats*) {
    return greedy_mwm(wg);
  };
}

std::uint64_t weighted_mwm_iteration_budget(double delta, double eps) {
  return static_cast<std::uint64_t>(
      std::ceil(3.0 / (2.0 * delta) * std::log(2.0 / eps)));
}

WeightedMwmResult weighted_mwm(const WeightedGraph& wg,
                               const WeightedMwmOptions& opts) {
  if (!(opts.eps > 0.0) || opts.eps >= 1.0) {
    throw std::invalid_argument("weighted_mwm: eps must be in (0,1)");
  }
  if (!(opts.delta > 0.0) || opts.delta > 0.5) {
    throw std::invalid_argument("weighted_mwm: delta must be in (0, 1/2]");
  }
  const Graph& g = wg.graph;
  const MwmBlackBox black_box =
      opts.black_box ? opts.black_box : class_mwm_black_box(opts.exec);
  const std::uint64_t iterations =
      opts.max_iterations != 0
          ? opts.max_iterations
          : weighted_mwm_iteration_budget(opts.delta, opts.eps);

  WeightedMwmResult result;
  result.matching = Matching(g.num_nodes());

  for (std::uint64_t iter = 0; iter < iterations; ++iter) {
    // Line 3: G' = (V, E, w_M). One exchange round, accounted.
    std::vector<double> gains =
        gain_weights(wg, result.matching, &result.stats, opts.exec);

    // Restrict to positive-gain edges: a maximum-weight matching never
    // gains from edges with w_M <= 0, and the class black box requires
    // positive weights.
    std::vector<char> keep_edge(g.num_edges(), 0);
    const std::size_t positive = simd::mask_positive_f64(
        gains.data(), g.num_edges(),
        reinterpret_cast<std::uint8_t*>(keep_edge.data()));
    ++result.iterations;
    if (positive == 0) {
      result.converged_early = true;
      result.weight_trajectory.push_back(result.matching.weight(wg));
      break;
    }
    // When every edge has positive gain (always so in iteration 1, where
    // M is empty), G' is G: share its store instead of copying the CSR.
    Subgraph sub;
    std::vector<double> sub_weights;
    if (positive == g.num_edges()) {
      sub.graph = g;
      sub.edge_to_parent.resize(g.num_edges());
      std::iota(sub.edge_to_parent.begin(), sub.edge_to_parent.end(),
                EdgeId{0});
      sub_weights = std::move(gains);
    } else {
      sub = induced_subgraph(g, {}, keep_edge);
      sub_weights.resize(sub.graph.num_edges());
      for (EdgeId e = 0; e < sub.graph.num_edges(); ++e) {
        sub_weights[e] = gains[sub.edge_to_parent[e]];
      }
    }
    WeightedGraph gprime =
        make_weighted(std::move(sub.graph), std::move(sub_weights));

    // Line 4: M' <- delta-MWM(G').
    const Matching m_prime = black_box(
        gprime, splitmix64(opts.seed ^ (iter * 0xa0761d6478bd642fULL)),
        &result.stats);

    // Line 5: M <- M ⊕ ∪ wrap(e). Applying the wraps takes O(1) rounds
    // (each M' edge's endpoints flip locally and notify their old
    // mates); account one round plus one O(log n)-bit message per
    // dropped edge endpoint.
    std::vector<EdgeId> parent_edges;
    parent_edges.reserve(m_prime.size());
    for (EdgeId e : m_prime.edge_ids(gprime.graph)) {
      parent_edges.push_back(sub.edge_to_parent[e]);
    }
    apply_wraps(g, result.matching, parent_edges);
    NetStats apply;
    apply.rounds = 1;
    apply.note_messages(2 * parent_edges.size(), node_id_bits(g.num_nodes()));
    result.stats.merge(apply);
    result.weight_trajectory.push_back(result.matching.weight(wg));
  }
  return result;
}

}  // namespace lps
