// Local simulation of the registered israeli_itai solver: answers
// matched_to / in_matching by lazily re-executing the protocol inside
// the queried ball instead of stepping the whole network.
//
// Why this is possible: the SyncNetwork execution is a deterministic
// function of the seed — node v's randomness in round r is
// Rng::substream(seed, v, r), independent of every other node — and a
// node's state after round r depends only on its radius-r ball. The
// oracle evaluates exactly that dependency cone, memoized at
// (node, phase) granularity:
//
//   stage0(v, p)  coin + proposal of v in phase p   <- frees of N(v) at p-1
//   stage1(v, p)  accept decision of v in phase p   <- stage0 of N(v) at p
//   state(v)      matched edge / resolution         <- stage0/stage1 chains
//
// Phase-synchronized flags make the recursion exact: a kMatched
// announcement sent in phase q is always processed before the stage-0
// candidate scan of phase q+1, so "v believes u free in phase p" equals
// "u unmatched through phase p-1" — no stale-knowledge cases survive at
// phase granularity (DESIGN.md section 8 gives the argument).
//
// Termination/pruning: a matched node's state is frozen forever, and a
// free node all of whose neighbors are matched can never act again —
// both collapse every later phase to O(1). The dependency cone
// therefore only expands through regions that stay *active*, which is
// what keeps mean probes per query far below n (bench_lca measures the
// growth). The global run's early-exit-on-silence needs no special
// handling: after a silent phase no proposal is ever sent again, so
// simulating to the full phase budget yields the identical matching.
#pragma once

#include <cstdint>

#include "lca/graph_access.hpp"
#include "lca/lru_cache.hpp"
#include "lca/oracle.hpp"
#include "util/rng.hpp"

namespace lps::lca {

class IsraeliItaiOracle final : public MatchingOracle {
 public:
  /// Accepted config key: max_phases (0 or absent = the solver's
  /// default budget; at most kIsraeliItaiMaxPhases, as for the solver).
  /// Unknown keys and larger budgets throw std::invalid_argument.
  IsraeliItaiOracle(const Graph& g, const OracleOptions& opts);

  std::string name() const override { return "israeli_itai"; }
  NodeId matched_to(NodeId v) override;
  bool in_matching(EdgeId e) override;
  OracleStats stats() const override;

 private:
  /// Stage-0 action of v in phase p (coin flip and proposal), provided
  /// v is still free entering the phase. `acted == false` means v was
  /// already matched and drew nothing.
  struct Stage0 {
    bool acted = false;
    bool coin = false;               // heads = proposer
    bool saw_candidate = false;      // some neighbor still believed free
    EdgeId proposal = kInvalidEdge;  // edge proposed on (proposers only)
  };

  /// Stage-1 accept decision of v in phase p: the edge whose proposal v
  /// accepted (v matches on it), or kInvalidEdge.
  struct Stage1 {
    EdgeId chosen = kInvalidEdge;
  };

  /// Evaluation frontier of one node. `computed_through` phases are
  /// fully simulated; a resolution (matched, or provably free forever)
  /// freezes the record.
  struct NodeState {
    std::int32_t computed_through = -1;
    std::int32_t match_phase = -1;      // >= 0 once matched
    EdgeId matched = kInvalidEdge;
    bool free_forever = false;
    bool resolved() const noexcept {
      return matched != kInvalidEdge || free_forever;
    }
  };

  /// Advance v's simulation until phase p is covered or v resolves,
  /// recursing into neighbors' earlier phases as needed. Returns the
  /// (cached) state afterwards.
  NodeState ensure(NodeId v, std::int32_t p);

  /// Was v matched by the end of phase p (p < 0 => no)?
  bool matched_by(NodeId v, std::int32_t p);

  Stage0 stage0(NodeId v, std::int32_t p);
  Stage1 stage1(NodeId v, std::int32_t p);

  /// Final resolution of v after the full phase budget.
  NodeState resolve(NodeId v);

  static std::uint64_t key(NodeId v, std::int32_t p) noexcept {
    return (static_cast<std::uint64_t>(v) << 32) |
           static_cast<std::uint32_t>(p);
  }

  GraphAccess access_;
  std::uint64_t seed_;
  std::int32_t max_phases_;
  LruCache<NodeId, NodeState> node_;
  LruCache<std::uint64_t, Stage0> s0_;
  LruCache<std::uint64_t, Stage1> s1_;
  std::uint64_t queries_ = 0;
};

}  // namespace lps::lca
