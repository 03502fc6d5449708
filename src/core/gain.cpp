#include "core/gain.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/engine.hpp"
#include "runtime/simd.hpp"

namespace lps {

std::vector<double> gain_weights(const WeightedGraph& wg, const Matching& m,
                                 NetStats* stats, const ExecContext& exec) {
  const Graph& g = wg.graph;
  std::vector<double> gains(g.num_edges(), 0.0);

  if (stats != nullptr) {
    // One synchronous round: matched nodes announce w(v, M(v)). Round 0
    // steps everyone (the default initial activation); the delivery
    // round is message-driven, so only receivers are stepped.
    struct WeightMsg {
      double w;
    };
    struct WeightBits {
      std::uint64_t operator()(const WeightMsg&) const noexcept { return 64; }
    };
    using WeightNet = SyncNetwork<WeightMsg, WeightBits>;
    WeightNet net(g, 0, WeightBits{}, exec);
    auto step = [&](WeightNet::Ctx& ctx) {
      const NodeId v = ctx.id();
      if (ctx.round() == 0 && !m.is_free(v)) {
        ctx.send_all(WeightMsg{wg.weight(m.matched_edge(v))});
      }
    };
    net.run_round(step);
    net.run_round(step);  // delivery round (receivers compute locally)
    stats->merge(net.stats());
  }

  // Columnar evaluation of w_M(e) = w(e) - w(u, M(u)) - w(v, M(v)):
  // gather-subtract over the store's endpoint columns against a
  // per-node mate-weight column. Free vertices contribute a literal
  // +0.0, an exact IEEE identity under subtraction, so the column needs
  // no mask and the result is bit-identical to the branching form
  // (operands are subtracted in the same u-then-v order).
  const GraphStore& s = g.store();
  std::vector<double> mate_w(g.num_nodes(), 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!m.is_free(v)) mate_w[v] = wg.weight(m.matched_edge(v));
  }
  simd::sub2_gather_f64(wg.weights.data(), mate_w.data(), s.edge_u.data(),
                        s.edge_v.data(), gains.data(), g.num_edges());
  // Matched edges carry zero gain by definition.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const EdgeId e = m.matched_edge(v);
    if (e != kInvalidEdge) gains[e] = 0.0;
  }
  return gains;
}

std::vector<EdgeId> wrap_edges(const Graph& g, const Matching& m, EdgeId e) {
  if (m.contains(g, e)) {
    throw std::invalid_argument("wrap_edges: e must be unmatched");
  }
  std::vector<EdgeId> out;
  const Edge& ed = g.edge(e);
  if (!m.is_free(ed.u)) out.push_back(m.matched_edge(ed.u));
  out.push_back(e);
  if (!m.is_free(ed.v)) out.push_back(m.matched_edge(ed.v));
  return out;
}

void apply_wraps(const Graph& g, Matching& m,
                 const std::vector<EdgeId>& m_prime) {
  if (!is_valid_matching(g, m_prime)) {
    throw std::invalid_argument("apply_wraps: m_prime is not a matching");
  }
  std::vector<EdgeId> toggles;
  for (EdgeId e : m_prime) {
    for (EdgeId t : wrap_edges(g, m, e)) toggles.push_back(t);
  }
  // Matched edges can appear in two wraps (adjacent to two m_prime
  // edges); the union keeps them once.
  std::sort(toggles.begin(), toggles.end());
  toggles.erase(std::unique(toggles.begin(), toggles.end()), toggles.end());
  m.symmetric_difference(g, toggles);
}

}  // namespace lps
