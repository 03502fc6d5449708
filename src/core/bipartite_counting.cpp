#include "core/bipartite_counting.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/engine.hpp"

namespace lps {

namespace {

struct CountMessage {
  BigCounter count;
};

/// Bit meter: a real CONGEST implementation ships each count as
/// ceil(bits / chunk) chunks of O(log Delta) bits; we meter the full
/// serialized width so max_message_bits reflects Lemma 3.6's
/// O(l log Delta) bound.
struct CountBits {
  std::uint64_t operator()(const CountMessage& msg) const {
    return std::max<std::uint64_t>(msg.count.bit_size(), 1) + 2;
  }
};

using CountNet = SyncNetwork<CountMessage, CountBits>;

}  // namespace

struct PathCounter::Net : CountNet {
  using CountNet::CountNet;
};

PathCounter::PathCounter(const Graph& g, const std::vector<std::uint8_t>& side,
                         const ExecContext& exec)
    : g_(&g), side_(&side) {
  if (side.size() != g.num_nodes()) {
    throw std::invalid_argument("count_augmenting_paths: side size");
  }
  net_ = std::make_unique<Net>(g, /*seed=*/0, CountBits{}, exec);
  out_.depth.resize(g.num_nodes());
  out_.total.resize(g.num_nodes());
  out_.endpoint.resize(g.num_nodes());
}

PathCounter::~PathCounter() = default;

bool PathCounter::forwards(NodeId u, EdgeId e) const {
  if (!active_->empty() && !(*active_)[e]) return false;
  const EdgeId mate_edge = m_->matched_edge(u);
  return (*side_)[u] == 0 ? e != mate_edge : e == mate_edge;
}

const BigCounter* PathCounter::arrival(NodeId v, std::size_t i) const {
  const std::uint32_t d = out_.depth[v];
  if (d == kUnreached || d == 0) return nullptr;
  const Incidence inc = g_->neighbors(v)[i];
  if (out_.depth[inc.to] != d - 1 || !forwards(inc.to, inc.edge)) {
    return nullptr;
  }
  return &out_.total[inc.to];
}

const CountingResult& PathCounter::run(const Matching& m, int max_len,
                                       const std::vector<char>& active_edges) {
  if (max_len < 1 || max_len % 2 == 0) {
    throw std::invalid_argument("count_augmenting_paths: max_len must be odd");
  }
  m_ = &m;
  active_ = &active_edges;
  std::fill(out_.depth.begin(), out_.depth.end(), kUnreached);
  for (BigCounter& t : out_.total) t = BigCounter{};
  std::fill(out_.endpoint.begin(), out_.endpoint.end(), 0);
  CountNet& net = *net_;
  net.reset(/*seed=*/0);
  const std::vector<std::uint8_t>& side = *side_;
  CountingResult& out = out_;

  // The BFS is message-driven: free X nodes launch in round 0 (everyone
  // is stepped by the initial-activation default, non-sources return
  // immediately) and afterwards only the frontier — nodes with arriving
  // counts — is stepped, so a counting pass costs O(n + reached + sent)
  // instead of O(n * l + m * l).
  auto step = [&](CountNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    const std::uint64_t round = ctx.round();
    const bool is_x = side[v] == 0;
    const bool free = m.is_free(v);

    if (round == 0) {
      // Free X nodes start the BFS.
      if (is_x && free) {
        out.depth[v] = 0;
        out.total[v] = BigCounter(1);
        for (const auto& inc : ctx.graph().neighbors(v)) {
          if (forwards(v, inc.edge)) {
            ctx.send(inc.edge, CountMessage{BigCounter(1)});
          }
        }
      }
      return;
    }

    if (out.depth[v] != kUnreached) return;  // visited: discard arrivals
    bool any = false;
    for (const auto& in : ctx.inbox()) {
      if (!active_edges.empty() && !active_edges[in.edge]) continue;
      any = true;
      out.total[v] += in.payload->count;
    }
    if (!any) return;
    out.depth[v] = static_cast<std::uint32_t>(round);

    // Structural sanity: Y arrivals happen at odd rounds, X at even.
    if (is_x == (round % 2 != 0)) {
      throw std::logic_error(is_x ? "counting: X node reached at odd depth"
                                  : "counting: Y node reached at even depth");
    }
    if (!is_x && free) {
      out.endpoint[v] = 1;  // terminal: paths of length `round` end here
      return;
    }
    if (round + 1 > static_cast<std::uint64_t>(max_len)) return;
    // Matched Y forwards n_v to its mate; matched X (free X have depth 0,
    // so it arrived via its mate) to its unmatched neighbors.
    if (!is_x) {
      const EdgeId mate_edge = m.matched_edge(v);
      if (forwards(v, mate_edge)) {
        ctx.send(mate_edge, CountMessage{out.total[v]});
      }
      return;
    }
    for (const auto& inc : ctx.graph().neighbors(v)) {
      if (forwards(v, inc.edge)) {
        ctx.send(inc.edge, CountMessage{out.total[v]});
      }
    }
  };

  // Rounds 0..max_len: sends in 0..max_len-1, deliveries in 1..max_len.
  for (int r = 0; r <= max_len; ++r) net.run_round(step);
  out.stats = net.stats();
  return out;
}

CountingResult count_augmenting_paths(const Graph& g,
                                      const std::vector<std::uint8_t>& side,
                                      const Matching& m, int max_len,
                                      const std::vector<char>& active_edges,
                                      const ExecContext& exec) {
  PathCounter counter(g, side, exec);
  counter.run(m, max_len, active_edges);
  return counter.take_result();
}

namespace {

/// DFS over alternating simple paths from free X nodes, counting those
/// that end at `target` with exactly `len` edges.
struct OracleSearch {
  const Graph& g;
  const std::vector<std::uint8_t>& side;
  const Matching& m;
  const std::vector<char>& active_edges;
  NodeId target;
  int len;
  std::vector<char> on_path;
  std::uint64_t found = 0;

  bool active(EdgeId e) const {
    return active_edges.empty() || active_edges[e];
  }

  void extend(NodeId cur, int used) {
    if (used == len) {
      if (cur == target) ++found;
      return;
    }
    const bool need_unmatched = (used % 2 == 0);
    if (need_unmatched) {
      for (const auto& inc : g.neighbors(cur)) {
        if (!active(inc.edge) || m.contains(g, inc.edge)) continue;
        if (on_path[inc.to]) continue;
        on_path[inc.to] = 1;
        extend(inc.to, used + 1);
        on_path[inc.to] = 0;
      }
    } else {
      const EdgeId e = m.matched_edge(cur);
      if (e == kInvalidEdge || !active(e)) return;
      const NodeId w = g.other_endpoint(e, cur);
      if (on_path[w]) return;
      on_path[w] = 1;
      extend(w, used + 1);
      on_path[w] = 0;
    }
  }
};

}  // namespace

std::uint64_t count_paths_oracle(const Graph& g,
                                 const std::vector<std::uint8_t>& side,
                                 const Matching& m, NodeId y, int len,
                                 const std::vector<char>& active_edges) {
  if (!m.is_free(y) || side[y] != 1) return 0;
  OracleSearch search{g,   side, m, active_edges, y,
                      len, std::vector<char>(g.num_nodes(), 0)};
  std::uint64_t total = 0;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    if (side[x] != 0 || !m.is_free(x)) continue;
    search.found = 0;
    search.on_path[x] = 1;
    search.extend(x, 0);
    search.on_path[x] = 0;
    total += search.found;
  }
  return total;
}

}  // namespace lps
