#include "core/gain.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "runtime/engine.hpp"

namespace lps {

namespace {

/// A matched node's announcement. The weight it stands for travels by
/// reference (GainRunner::announced_), so the message itself is empty;
/// the meter still charges the 64-bit weight a real network would carry.
struct Announce {};

struct AnnounceBits {
  std::uint64_t operator()(const Announce&) const noexcept { return 64; }
};

using GainNet = SyncNetwork<Announce, AnnounceBits>;

/// Reject a matching that does not belong to g's vertex set: reading it
/// with g's ids would run out of bounds.
void require_matching_of(const Graph& g, const Matching& m, const char* who) {
  if (m.num_nodes() != g.num_nodes()) {
    throw std::invalid_argument(std::string(who) +
                                ": matching sized for another graph");
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const EdgeId e = m.matched_edge(v);
    if (e == kInvalidEdge) continue;
    if (e >= g.num_edges() || (g.edge(e).u != v && g.edge(e).v != v)) {
      throw std::invalid_argument(std::string(who) +
                                  ": matched edge not incident in the graph");
    }
  }
}

}  // namespace

struct GainRunner::Net : GainNet {
  using GainNet::GainNet;
};

GainRunner::GainRunner(const WeightedGraph& wg, const ExecContext& exec)
    : wg_(&wg),
      net_(std::make_unique<Net>(wg.graph, /*seed=*/0, AnnounceBits{}, exec)),
      announced_(wg.graph.num_nodes(), 0.0) {}

GainRunner::~GainRunner() = default;

std::vector<double> GainRunner::run(const Matching& m, NetStats* stats) {
  const WeightedGraph& wg = *wg_;
  require_matching_of(wg.graph, m, "gain_weights");
  // Edges no message reaches (both endpoints free) keep w(e).
  std::vector<double> gains = wg.weights;
  double* const announced = announced_.data();

  GainNet& net = *net_;
  net.reset(/*seed=*/0);
  // Round 0 steps every node; round 1 steps only receivers.
  auto step = [&](GainNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    const EdgeId mine = m.matched_edge(v);
    if (ctx.round() == 0) {
      announced[v] = mine == kInvalidEdge ? 0.0 : wg.weight(mine);
      if (mine != kInvalidEdge) ctx.send_all(Announce{});
      return;
    }
    // Every sender is matched. A free receiver writes the edge; a
    // matched one writes only when it has the smaller id.
    for (const auto in : ctx.inbox()) {
      const NodeId u = in.from;
      if (mine != kInvalidEdge && u < v) continue;
      const EdgeId e = in.edge;
      gains[e] = e == mine ? 0.0
                           : wg.weight(e) - announced[std::min(u, v)] -
                                 announced[std::max(u, v)];
    }
  };
  net.run_round(step);  // announce
  net.run_round(step);  // receivers compute w_M
  if (stats != nullptr) stats->merge(net.stats());
  return gains;
}

std::vector<double> gain_weights(const WeightedGraph& wg, const Matching& m,
                                 NetStats* stats, const ExecContext& exec) {
  return GainRunner(wg, exec).run(m, stats);
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
  require_matching_of(g, m, "apply_wraps");
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
