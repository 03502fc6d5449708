// Experiment FIG2 — Figure 2 of the paper: the derived gain function
// w_M and Lemma 4.1. The figure's worked example has w(M) = 14 under w,
// w_M(M') = 10 under the gain weights, and the wrapped result M'' with
// w(M'') = 26 >= w(M) + w_M(M') = 24 (strict: wraps overlap on M
// edges). We regenerate the same arithmetic on the reconstructed
// instance, then measure the Lemma 4.1 slack distribution on random
// weighted graphs.
#include "bench/bench_common.hpp"
#include "core/gain.hpp"
#include "seq/greedy.hpp"
#include "tests/helpers.hpp"

using namespace lps;

namespace {

void fig2_arithmetic() {
  bench::print_header("FIG2.a: the Figure 2 arithmetic",
                      "w(M)=14, w_M(M')=10, w(M'') = 26 >= 24");
  const auto fig = lps::testing::make_fig2();
  const Graph& g = fig.wg.graph;
  const auto gains = gain_weights(fig.wg, fig.m);

  Table edges({"edge", "w", "in M", "w_M (gain)"});
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    edges.row();
    edges.cell(std::to_string(ed.u) + "-" + std::to_string(ed.v));
    edges.cell(fig.wg.weight(e), 4);
    edges.cell(fig.m.contains(g, e) ? "yes" : "no");
    edges.cell(gains[e], 4);
  }
  bench::print_table(edges);

  double wm_mprime = 0;
  for (EdgeId e : fig.m_prime) wm_mprime += gains[e];
  Matching m2 = fig.m;
  apply_wraps(g, m2, fig.m_prime);
  Table summary({"quantity", "value", "paper figure"});
  summary.row().cell("w(M)").cell(fig.m.weight(fig.wg), 4).cell("14");
  summary.row().cell("w_M(M')").cell(wm_mprime, 4).cell("10");
  summary.row().cell("w(M'')").cell(m2.weight(fig.wg), 4).cell("26");
  summary.row()
      .cell("w(M)+w_M(M')")
      .cell(fig.m.weight(fig.wg) + wm_mprime, 4)
      .cell("24 (Lemma 4.1 lower bound)");
  bench::print_table(summary);
}

void lemma41_slack() {
  bench::print_header(
      "FIG2.b: Lemma 4.1 on random graphs",
      "w(M ⊕ ∪wrap(e)) - w(M) - w_M(M') >= 0 always; strictly > 0 when "
      "wraps overlap");
  Table t({"n", "seed", "trials", "violations", "mean slack", "max slack",
           "overlapping trials"});
  for (const NodeId n : {20u, 40u, 80u}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      Rng rng(seed * 100 + n);
      StreamingStats slack;
      std::size_t violations = 0, overlaps = 0;
      const int kTrials = 50;
      for (int trial = 0; trial < kTrials; ++trial) {
        Graph g = erdos_renyi(n, 4.0 / n, rng);
        if (g.num_edges() < 3) continue;
        auto w = uniform_weights(g.num_edges(), 1.0, 50.0, rng);
        const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
        const Graph& graph = wg.graph;
        Matching m = greedy_mwm(wg);
        auto ids = m.edge_ids(graph);
        for (std::size_t i = 0; i < ids.size(); i += 2) {
          m.remove(graph, ids[i]);
        }
        const auto gains = gain_weights(wg, m);
        Matching mp(graph.num_nodes());
        for (EdgeId e = 0; e < graph.num_edges(); ++e) {
          if (m.contains(graph, e) || gains[e] <= 0) continue;
          const Edge& ed = graph.edge(e);
          if (mp.is_free(ed.u) && mp.is_free(ed.v)) mp.add(graph, e);
        }
        double gain_sum = 0;
        std::size_t wrap_edge_count = 0;
        for (EdgeId e : mp.edge_ids(graph)) {
          gain_sum += gains[e];
          wrap_edge_count += wrap_edges(graph, m, e).size();
        }
        const double before = m.weight(wg);
        Matching m2 = m;
        apply_wraps(graph, m2, mp.edge_ids(graph));
        const double s = m2.weight(wg) - before - gain_sum;
        if (s < -1e-9) ++violations;
        slack.add(s);
        // Overlap detection: union smaller than the multiset sum.
        std::vector<EdgeId> all;
        for (EdgeId e : mp.edge_ids(graph)) {
          for (EdgeId t2 : wrap_edges(graph, m, e)) all.push_back(t2);
        }
        std::sort(all.begin(), all.end());
        if (std::adjacent_find(all.begin(), all.end()) != all.end()) {
          ++overlaps;
        }
      }
      t.row();
      t.cell(static_cast<std::size_t>(n));
      t.cell(static_cast<std::size_t>(seed));
      t.cell(static_cast<std::size_t>(slack.count()));
      t.cell(violations);
      t.cell(slack.mean(), 4);
      t.cell(slack.max(), 4);
      t.cell(overlaps);
    }
  }
  bench::print_table(t);
}

}  // namespace

int main(int argc, char** argv) try {
  Args(argc, argv).check_all_used();
  fig2_arithmetic();
  lemma41_slack();
  return 0;
} catch (const std::invalid_argument& e) {
  return reject_input("bench_fig2_gain", e);
}
