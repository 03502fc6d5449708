#include "lca/rank_greedy.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/options.hpp"

namespace lps::lca {

Matching rank_greedy_matching(const Graph& g, std::uint64_t seed) {
  // Ranks are hashes: compute each once and sort the pairs rather than
  // re-hashing inside the comparator.
  std::vector<std::pair<std::uint64_t, EdgeId>> order(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    order[e] = {edge_rank(seed, e), e};
  }
  std::sort(order.begin(), order.end());
  Matching m(g.num_nodes());
  for (const auto& [rank, e] : order) {
    const Edge& ed = g.edge(e);
    if (m.is_free(ed.u) && m.is_free(ed.v)) m.add(g, e);
  }
  return m;
}

namespace {

/// Default memo bound: generous enough that single-machine workloads
/// rarely evict, small enough to stay a real bound (~9 MB of entries).
constexpr std::size_t kDefaultEdgeMemo = std::size_t{1} << 20;

}  // namespace

RankGreedyOracle::RankGreedyOracle(const Graph& g, const OracleOptions& opts)
    : access_(g),
      seed_(opts.seed),
      memo_(opts.cache_capacity != 0 ? opts.cache_capacity
                                     : kDefaultEdgeMemo) {
  Args("rank_greedy_mcm oracle", opts.config).check_all_used();
}

std::vector<EdgeId> RankGreedyOracle::lower_ranked_neighbors(EdgeId e) {
  const Edge ed = access_.edge(e);
  const std::pair<std::uint64_t, EdgeId> mine{edge_rank(seed_, e), e};
  // One hash per adjacent edge, then sort the precomputed pairs.
  std::vector<std::pair<std::uint64_t, EdgeId>> lower;
  for (const NodeId endpoint : {ed.u, ed.v}) {
    for (const Graph::Incidence& inc : access_.neighbors(endpoint)) {
      if (inc.edge == e) continue;
      const std::pair<std::uint64_t, EdgeId> theirs{
          edge_rank(seed_, inc.edge), inc.edge};
      if (theirs < mine) lower.push_back(theirs);
    }
  }
  // No dedup needed: in a simple graph an adjacent edge shares exactly
  // one endpoint with e, so the two scans report disjoint sets.
  std::sort(lower.begin(), lower.end());
  std::vector<EdgeId> out;
  out.reserve(lower.size());
  for (const auto& [rank, id] : lower) out.push_back(id);
  return out;
}

bool RankGreedyOracle::evaluate(EdgeId root) {
  struct Frame {
    EdgeId e;
    std::vector<EdgeId> lower;
    std::size_t next = 0;
  };
  if (const auto hit = memo_.get(root)) return *hit;
  std::vector<Frame> stack;
  stack.push_back({root, lower_ranked_neighbors(root)});
  // The last fully-evaluated child, consulted by its parent directly so
  // a memo eviction between the child's put() and the parent's resume
  // can never force a re-push loop.
  EdgeId last_done = kInvalidEdge;
  bool last_result = false;
  while (!stack.empty()) {
    Frame& top = stack.back();
    bool resolved = false;
    while (top.next < top.lower.size()) {
      const EdgeId dep = top.lower[top.next];
      std::optional<bool> dep_in;
      if (dep == last_done) {
        dep_in = last_result;
      } else {
        dep_in = memo_.get(dep);
      }
      if (!dep_in.has_value()) {
        // Ranks strictly decrease down the chain, so dep is not already
        // on the stack and the walk terminates.
        stack.push_back({dep, lower_ranked_neighbors(dep)});
        resolved = true;  // resume the parent after dep completes
        break;
      }
      if (*dep_in) {
        // A lower-ranked adjacent edge is matched: e is excluded.
        memo_.put(top.e, false);
        last_done = top.e;
        last_result = false;
        stack.pop_back();
        resolved = true;
        break;
      }
      ++top.next;
    }
    if (resolved) continue;
    // Every lower-ranked adjacent edge is unmatched: e is matched.
    memo_.put(top.e, true);
    last_done = top.e;
    last_result = true;
    stack.pop_back();
  }
  // The root frame is pushed first and popped last, so the final
  // completed edge is always the root itself.
  return last_result;
}

NodeId RankGreedyOracle::matched_to(NodeId v) {
  ++queries_;
  // v's matched edge (if any) is the unique incident edge in M; probing
  // in ascending rank order resolves the cheap, likely-matched
  // candidates first.
  std::vector<std::pair<std::uint64_t, EdgeId>> incident;
  for (const Graph::Incidence& inc : access_.neighbors(v)) {
    incident.push_back({edge_rank(seed_, inc.edge), inc.edge});
  }
  std::sort(incident.begin(), incident.end());
  for (const auto& [rank, e] : incident) {
    if (evaluate(e)) return access_.graph().other_endpoint(e, v);
  }
  return kInvalidNode;
}

bool RankGreedyOracle::in_matching(EdgeId e) {
  ++queries_;
  return evaluate(e);
}

OracleStats RankGreedyOracle::stats() const {
  OracleStats s;
  s.queries = queries_;
  s.probes = access_.probes();
  s.cache_hits = memo_.hits();
  s.cache_misses = memo_.misses();
  return s;
}

}  // namespace lps::lca
