#include "core/israeli_itai.hpp"

#include <cmath>

#include "faults/injector.hpp"
#include "runtime/engine.hpp"
#include "runtime/simd.hpp"

namespace lps {

namespace {

enum class IiType : std::uint8_t { kPropose, kAccept, kMatched };

struct IiMessage {
  IiType type;
};

/// 2 bits of content; meter generously as one byte.
struct IiBits {
  std::uint64_t operator()(const IiMessage&) const noexcept { return 8; }
};

using IiNet = SyncNetwork<IiMessage, IiBits>;

}  // namespace

std::uint64_t israeli_itai_default_max_phases(NodeId n) {
  return 40 + 12 * static_cast<std::uint64_t>(
                       std::ceil(std::log2(static_cast<double>(n) + 1.0)));
}

struct IsraeliItaiRunner::Net : IiNet {
  using IiNet::IiNet;
};

IsraeliItaiRunner::IsraeliItaiRunner(const Graph& g, const ExecContext& exec)
    : g_(&g), net_(std::make_unique<Net>(g, /*seed=*/0, IiBits{}, exec)) {}

IsraeliItaiRunner::~IsraeliItaiRunner() = default;

DistMatchingResult IsraeliItaiRunner::run(const IsraeliItaiOptions& opts) {
  const Graph& g = *g_;
  const NodeId n = g.num_nodes();
  if (!opts.active_edges.empty() && opts.active_edges.size() != g.num_edges()) {
    throw std::invalid_argument("israeli_itai: active_edges size mismatch");
  }
  if (opts.initial && opts.initial->num_nodes() != n) {
    throw std::invalid_argument("israeli_itai: initial matching size");
  }
  auto active = [&](EdgeId e) {
    return opts.active_edges.empty() || opts.active_edges[e];
  };

  std::vector<EdgeId>& matched_edge = matched_edge_;
  matched_edge.assign(n, kInvalidEdge);
  if (opts.initial) {
    for (NodeId v = 0; v < n; ++v) {
      matched_edge[v] = opts.initial->matched_edge(v);
    }
  }
  // free_neighbor per arc, laid out at CSR arc positions (offsets[v] + i
  // for v's i-th incidence) — the same indexing the engine's inbox slots
  // use, so a kMatched arrival updates its flag without scanning the row.
  const std::vector<std::uint64_t>& adj_offset = g.store().offsets;
  std::vector<std::uint8_t>& neighbor_free = neighbor_free_;
  neighbor_free.assign(adj_offset[n], 1);
  // Initialize neighbor liveness against the initial matching.
  if (opts.initial) {
    for (NodeId v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (matched_edge[nbrs[i].to] != kInvalidEdge) {
          neighbor_free[adj_offset[v] + i] = 0;
        }
      }
    }
  }
  std::vector<std::uint8_t>& coin = coin_;
  coin.assign(n, 0);
  std::vector<EdgeId>& proposal_edge = proposal_edge_;
  proposal_edge.assign(n, kInvalidEdge);
  // Set by a node at stage 0 when it is free and still sees a free
  // active neighbor; used for termination detection (a phase in which no
  // node had any candidate can never make progress again).
  std::vector<std::uint8_t>& had_candidates = had_candidates_;
  had_candidates.assign(n, 0);

  IiNet& net = *net_;
  net.reset(opts.seed);
  net.step_all_nodes(opts.step_all_nodes);
  // reset() keeps an injector attached, so attach or detach every run.
  injector_ = faults::make_message_injector(opts.faults, opts.seed);
  net.set_message_faults(injector_.get());
  // Round 0 of a subgraph run steps only the active edges' endpoints. A
  // vertex with no active edge would only flip a coin nothing reads and
  // report no candidates, exactly what skipping it leaves behind.
  if (!opts.active_edges.empty()) {
    net.restrict_initial_active();
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!opts.active_edges[e]) continue;
      net.activate(g.edge(e).u);
      net.activate(g.edge(e).v);
    }
  }

  const std::uint64_t max_phases = opts.max_phases != 0
                                       ? opts.max_phases
                                       : israeli_itai_default_max_phases(n);

  // Active-set contract: a node acts without mail only at stage 0 (its
  // coin and proposal); at stages 1 and 2 only receivers can act, so
  // only receivers are stepped there. A free node that sees a live
  // candidate at stage 0 therefore wakes itself with keep_active(3) for
  // the next stage 0 and sleeps through stages 1 and 2 unless mail
  // arrives. A node whose neighbors all announced kMatched can never
  // propose or be proposed to again (the same freeze the lca oracle
  // exploits), so it sleeps until mail or a resync activation wakes it.
  // Matched nodes drop out and are only woken by announcements, which
  // arrive as ordinary messages. Fault-free, this reproduces the
  // step-everything execution bit for bit: a node skipped here would
  // neither send nor mutate observable state if stepped.
  auto step = [&](IiNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    const auto nbrs = ctx.graph().neighbors(v);
    const int stage = static_cast<int>(ctx.round() % 3);

    // Matched-announcements can arrive at any stage; process them first.
    // The inbox slot IS the arc position, so the flag update is direct.
    for (const auto& in : ctx.inbox()) {
      if (in.payload->type == IiType::kMatched) {
        neighbor_free[adj_offset[v] + in.slot] = 0;
      }
    }
    // Announce a new match on every incidence but the matched one.
    auto announce = [&](std::uint32_t matched_slot) {
      for (std::uint32_t i = 0; i < nbrs.size(); ++i) {
        if (i != matched_slot) ctx.send_slot(i, IiMessage{IiType::kMatched});
      }
    };
    const bool free = matched_edge[v] == kInvalidEdge;

    if (stage == 0) {  // propose
      if (!free) return;
      coin[v] = ctx.rng().coin() ? 1 : 0;
      proposal_edge[v] = kInvalidEdge;
      // Count active free neighbors (for liveness tracking even when the
      // coin says "acceptor").
      std::uint32_t candidates = 0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (neighbor_free[adj_offset[v] + i] && active(nbrs[i].edge)) {
          ++candidates;
        }
      }
      had_candidates[v] = candidates > 0 ? 1 : 0;
      if (candidates > 0) ctx.keep_active(3);
      if (!coin[v] || candidates == 0) return;
      std::uint32_t pick = static_cast<std::uint32_t>(ctx.rng().below(candidates));
      for (std::uint32_t i = 0; i < nbrs.size(); ++i) {
        if (neighbor_free[adj_offset[v] + i] && active(nbrs[i].edge)) {
          if (pick == 0) {
            proposal_edge[v] = nbrs[i].edge;
            ctx.send_slot(i, IiMessage{IiType::kPropose});
            break;
          }
          --pick;
        }
      }
      return;
    }
    if (stage == 1 && free && !coin[v]) {  // accept
      // Count the proposals, draw one, then find it in the inbox.
      auto is_proposal = [&](const IiNet::Incoming& in) {
        return in.payload->type == IiType::kPropose && active(in.edge);
      };
      std::uint32_t proposals = 0;
      for (const auto& in : ctx.inbox()) proposals += is_proposal(in) ? 1 : 0;
      if (proposals > 0) {
        auto pick = static_cast<std::uint32_t>(ctx.rng().below(proposals));
        for (const auto& in : ctx.inbox()) {
          if (!is_proposal(in) || pick-- != 0) continue;
          matched_edge[v] = in.edge;
          ctx.send_slot(in.slot, IiMessage{IiType::kAccept});
          announce(in.slot);
          break;
        }
      }
    } else if (stage == 2 && free && coin[v] &&
               proposal_edge[v] != kInvalidEdge) {  // proposers learn fate
      for (const auto& in : ctx.inbox()) {
        if (in.payload->type == IiType::kAccept &&
            in.edge == proposal_edge[v]) {
          matched_edge[v] = proposal_edge[v];
          announce(in.slot);
          break;
        }
      }
    }
    // A node still free after mail at stage 1 or 2 that did not wake
    // itself at stage 0 (only message faults produce one) runs the next
    // stage 0 as well: that stage redraws the coin by which a late
    // proposal is judged.
    if (matched_edge[v] == kInvalidEdge && !had_candidates[v]) {
      ctx.keep_active(3 - static_cast<unsigned>(stage));
    }
  };

  bool converged = false;
  for (std::uint64_t phase = 0; phase < max_phases; ++phase) {
    std::fill(had_candidates.begin(), had_candidates.end(), 0);
    net.run_round(step);  // stage 0
    net.run_round(step);  // stage 1
    net.run_round(step);  // stage 2
    // `neighbor_free` flags only turn off on true matched-announcements,
    // so "no node saw a candidate" certifies maximality (stale flags can
    // only cause extra phases, never early termination).
    if (!simd::any_ne_u8(had_candidates.data(), n, 0)) {
      converged = true;
      break;
    }
  }

  // Resync under message faults: a dropped or belated accept leaves a
  // handshake half-committed — the acceptor believes it is matched on an
  // edge the proposer never claimed (or claimed differently). Reconcile
  // by freeing every vertex whose partner disagrees, refreshing the
  // free-flags in both directions around the freed region, and waking
  // exactly that neighborhood for a short burst of extra phases: local
  // repair, not a restart. Faults stay live during the burst, so sweep
  // until agreement or the budget runs out.
  std::uint32_t resyncs = 0;
  if (injector_ != nullptr) {
    for (std::uint32_t sweep = 0; sweep < opts.max_resyncs; ++sweep) {
      std::vector<NodeId> perturbed;
      for (NodeId v = 0; v < n; ++v) {
        const EdgeId e = matched_edge[v];
        if (e == kInvalidEdge) continue;
        if (matched_edge[g.other_endpoint(e, v)] != e) perturbed.push_back(v);
      }
      if (perturbed.empty()) break;
      ++resyncs;
      telemetry::EventLog::global().emit(telemetry::EventKind::kResync,
                                         net.round(), sweep,
                                         perturbed.size());
      for (const NodeId v : perturbed) {
        matched_edge[v] = kInvalidEdge;
        proposal_edge[v] = kInvalidEdge;
      }
      for (const NodeId v : perturbed) {
        net.activate(v);
        const auto nbrs = g.neighbors(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const NodeId w = nbrs[i].to;
          neighbor_free[adj_offset[v] + i] =
              matched_edge[w] == kInvalidEdge ? 1 : 0;
          // w's slot for v: v is free again (undoes a kMatched announce).
          const auto wnbrs = g.neighbors(w);
          for (std::size_t j = 0; j < wnbrs.size(); ++j) {
            if (wnbrs[j].to == v) {
              neighbor_free[adj_offset[w] + j] = 1;
              break;
            }
          }
          net.activate(w);
        }
      }
      constexpr std::uint64_t kResyncPhases = 8;
      for (std::uint64_t phase = 0; phase < kResyncPhases; ++phase) {
        std::fill(had_candidates.begin(), had_candidates.end(), 0);
        net.run_round(step);  // stage 0
        net.run_round(step);  // stage 1
        net.run_round(step);  // stage 2
        if (!simd::any_ne_u8(had_candidates.data(), n, 0)) break;
      }
    }
  }

  DistMatchingResult out;
  out.stats = net.stats();
  out.converged = converged;
  out.resyncs = resyncs;
  std::vector<EdgeId> ids;
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId e = matched_edge[v];
    if (e == kInvalidEdge || g.edge(e).u != v) continue;
    // Count the edge only when both endpoints claim it. Fault-free
    // executions always agree (the handshake is the agreement), so this
    // filter is vacuous there; under an exhausted resync budget it still
    // guarantees a valid matching: each vertex claims at most one edge,
    // so mutually-claimed edges can never share an endpoint.
    if (matched_edge[g.edge(e).v] == e) ids.push_back(e);
  }
  out.matching = Matching::from_edges(g, ids);
  return out;
}

DistMatchingResult israeli_itai(const Graph& g,
                                const IsraeliItaiOptions& opts) {
  return IsraeliItaiRunner(g, opts.exec).run(opts);
}

}  // namespace lps
