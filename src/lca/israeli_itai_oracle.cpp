#include "lca/israeli_itai_oracle.hpp"

#include <vector>

#include "core/israeli_itai.hpp"
#include "util/options.hpp"

namespace lps::lca {

namespace {

constexpr std::size_t kDefaultMemo = std::size_t{1} << 20;

std::size_t memo_capacity(const OracleOptions& opts) {
  return opts.cache_capacity != 0 ? opts.cache_capacity : kDefaultMemo;
}

}  // namespace

IsraeliItaiOracle::IsraeliItaiOracle(const Graph& g,
                                     const OracleOptions& opts)
    : access_(g),
      seed_(opts.seed),
      max_phases_(0),
      node_(memo_capacity(opts)),
      s0_(memo_capacity(opts)),
      s1_(memo_capacity(opts)) {
  const Args args("israeli_itai oracle", opts.config);
  const std::uint64_t max_phases =
      args.get_count("max_phases", 0, kIsraeliItaiMaxPhases);
  args.check_all_used();
  max_phases_ = static_cast<std::int32_t>(
      max_phases != 0 ? max_phases
                      : israeli_itai_default_max_phases(g.num_nodes()));
}

bool IsraeliItaiOracle::matched_by(NodeId v, std::int32_t p) {
  if (p < 0) return false;
  const NodeState st = ensure(v, p);
  return st.matched != kInvalidEdge && st.match_phase <= p;
}

IsraeliItaiOracle::Stage0 IsraeliItaiOracle::stage0(NodeId v,
                                                    std::int32_t p) {
  const std::uint64_t k = key(v, p);
  if (const auto hit = s0_.get(k)) return *hit;
  Stage0 s;
  if (!matched_by(v, p - 1)) {
    s.acted = true;
    // The same per-(node, round) substream the SyncNetwork hands the
    // global protocol at round 3p; draw order (coin, then pick) must
    // match israeli_itai.cpp's stage 0 exactly.
    Rng rng = Rng::substream(seed_, std::uint64_t{v},
                             static_cast<std::uint64_t>(3) * p);
    s.coin = rng.coin();
    const auto nbrs = access_.neighbors(v);
    std::vector<char> candidate(nbrs.size(), 0);
    std::uint32_t candidates = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      // Phase-synchronized flags: v believes u free in phase p iff u is
      // unmatched through phase p-1 (announcements from phase q always
      // land before the stage-0 scan of phase q+1).
      if (!matched_by(nbrs[i].to, p - 1)) {
        candidate[i] = 1;
        ++candidates;
      }
    }
    s.saw_candidate = candidates > 0;
    if (s.coin && candidates > 0) {
      std::uint32_t pick = static_cast<std::uint32_t>(rng.below(candidates));
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (!candidate[i]) continue;
        if (pick == 0) {
          s.proposal = nbrs[i].edge;
          break;
        }
        --pick;
      }
    }
  }
  s0_.put(k, s);
  return s;
}

IsraeliItaiOracle::Stage1 IsraeliItaiOracle::stage1(NodeId v,
                                                    std::int32_t p) {
  const std::uint64_t k = key(v, p);
  if (const auto hit = s1_.get(k)) return *hit;
  Stage1 s;
  const Stage0 mine = stage0(v, p);
  if (mine.acted && !mine.coin) {
    // Inbox order at stage 1 is v's incidence order: SyncNetwork's
    // mailbox sorts each receiver's deliveries by their position in
    // neighbors(v) (the engine's canonical-inbox-order guarantee, see
    // DESIGN.md §9), so the accept draw indexes proposals in exactly
    // that order. The global protocol's active-set scheduling never
    // changes the draw either: a node skipped by the scheduler would
    // neither propose nor accept if stepped.
    std::vector<EdgeId> proposals;
    for (const Graph::Incidence& inc : access_.neighbors(v)) {
      const Stage0 theirs = stage0(inc.to, p);
      if (theirs.acted && theirs.coin && theirs.proposal == inc.edge) {
        proposals.push_back(inc.edge);
      }
    }
    if (!proposals.empty()) {
      Rng rng = Rng::substream(seed_, std::uint64_t{v},
                               static_cast<std::uint64_t>(3) * p + 1);
      s.chosen = proposals[rng.below(proposals.size())];
    }
  }
  s1_.put(k, s);
  return s;
}

IsraeliItaiOracle::NodeState IsraeliItaiOracle::ensure(NodeId v,
                                                       std::int32_t p) {
  if (p >= max_phases_) p = max_phases_ - 1;
  NodeState st = node_.get(v).value_or(NodeState{});
  while (!st.resolved() && st.computed_through < p) {
    const std::int32_t q = st.computed_through + 1;
    const Stage0 s0 = stage0(v, q);
    if (!s0.saw_candidate) {
      // No free neighbor in phase q: flags only ever turn off and a
      // matched neighbor never proposes, so v can neither propose nor
      // receive a proposal in any phase >= q. Frozen free.
      st.free_forever = true;
      st.computed_through = q;
      node_.put(v, st);
      return st;
    }
    if (!s0.coin) {
      const Stage1 s1 = stage1(v, q);
      if (s1.chosen != kInvalidEdge) {
        st.matched = s1.chosen;
        st.match_phase = q;
      }
    } else if (s0.proposal != kInvalidEdge) {
      const Edge ed = access_.edge(s0.proposal);
      const NodeId target = ed.u == v ? ed.v : ed.u;
      const Stage1 accept = stage1(target, q);
      if (accept.chosen == s0.proposal) {
        st.matched = s0.proposal;
        st.match_phase = q;
      }
    }
    st.computed_through = q;
    // Publish after every phase so the recursion's own lookups of v
    // (neighbors evaluating their stage 0 against v's earlier phases)
    // hit the frontier instead of re-simulating it.
    node_.put(v, st);
  }
  return st;
}

IsraeliItaiOracle::NodeState IsraeliItaiOracle::resolve(NodeId v) {
  return ensure(v, max_phases_ - 1);
}

NodeId IsraeliItaiOracle::matched_to(NodeId v) {
  ++queries_;
  const NodeState st = resolve(v);
  return st.matched == kInvalidEdge
             ? kInvalidNode
             : access_.graph().other_endpoint(st.matched, v);
}

bool IsraeliItaiOracle::in_matching(EdgeId e) {
  ++queries_;
  const Edge ed = access_.edge(e);
  return resolve(ed.u).matched == e;
}

OracleStats IsraeliItaiOracle::stats() const {
  OracleStats s;
  s.queries = queries_;
  s.probes = access_.probes();
  s.cache_hits = node_.hits() + s0_.hits() + s1_.hits();
  s.cache_misses = node_.misses() + s0_.misses() + s1_.misses();
  return s;
}

}  // namespace lps::lca
