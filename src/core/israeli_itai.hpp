// Randomized distributed maximal matching in the style of Israeli & Itai
// (1986), reference [15] of the paper: the classical 1/2-MCM baseline in
// O(log n) rounds w.h.p. that the paper's Section 3 improves on.
//
// Protocol (3 rounds per phase):
//   stage 0: every free node flips a coin; heads-nodes ("proposers") send
//            a proposal to one free neighbor chosen uniformly at random.
//   stage 1: every free tails-node ("acceptor") that received proposals
//            picks one uniformly and sends an accept; it is now matched
//            and announces this to its other neighbors.
//   stage 2: a proposer receiving an accept is matched and announces.
// A node stops once it is matched or has no free neighbors; the run ends
// when the network goes silent, at which point the matching is maximal.
//
// The proposer/acceptor coin removes all accept conflicts (a proposer
// proposes to exactly one node, so it can receive at most one accept and
// never accepts itself).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "graph/matching.hpp"
#include "runtime/exec_context.hpp"
#include "runtime/round_stats.hpp"

namespace lps {

namespace faults {
class MessageFaultInjector;
}  // namespace faults

struct IsraeliItaiOptions {
  std::uint64_t seed = 1;
  /// Hard cap on phases (3 rounds each); 0 picks 40 + 12*ceil(log2(n+1)).
  std::uint64_t max_phases = 0;
  /// Restrict the run to a logical subgraph: inactive edges are treated
  /// as absent. Empty = all edges active.
  std::vector<char> active_edges;
  /// Start from this matching instead of the empty one (its endpoints
  /// count as already matched).
  std::optional<Matching> initial;
  /// Used by israeli_itai(); a runner keeps its construction context.
  ExecContext exec;
  /// Step every node every round instead of the active set (same
  /// execution bit for bit; costs O(n) per round instead of O(free
  /// nodes + traffic)). Exposed for the equivalence test.
  bool step_all_nodes = false;
  /// Fault-injection spec ("" = fault-free): a preset name or an
  /// explicit `name:key=value,...` plan (src/faults). Message faults
  /// apply at the engine's channel exchange; after the round budget a
  /// reconciliation/resync loop repairs half-committed handshakes (a
  /// dropped accept leaves an acceptor matched to a proposer that never
  /// learned of it) by freeing the disagreeing vertices, re-opening
  /// exactly their neighborhoods, and running more phases — never by
  /// restarting. The returned matching is valid under any fault rate;
  /// maximality is best-effort once messages can be lost.
  std::string faults;
  /// Cap on resync sweeps (each sweep: reconcile + a burst of phases).
  std::uint32_t max_resyncs = 8;
};

struct DistMatchingResult {
  Matching matching;
  NetStats stats;
  /// True iff the protocol went silent (matching maximal on the active
  /// subgraph) before the phase cap.
  bool converged = false;
  /// Resync sweeps that found (and repaired) half-committed handshakes;
  /// always 0 in fault-free runs.
  std::uint32_t resyncs = 0;
};

/// Israeli–Itai on one graph, re-runnable: the round network and the
/// per-node state are built once and reused by every run(), so a caller
/// that runs the protocol many times on one graph (class_mwm runs it
/// once per weight class) constructs one network in total. Each run is
/// bit-identical to a fresh israeli_itai(g, opts).
///
/// A run over `active_edges` steps in round 0 only the endpoints of
/// active edges rather than all n vertices: a vertex with no active
/// edge never sends and never changes state another vertex reads. Each
/// run still pays O(n + m) outside the engine's rounds (refilling the
/// per-node and per-arc buffers, scanning the mask, collecting the
/// matching) and O(n) per phase for the termination check.
class IsraeliItaiRunner {
 public:
  /// `g` must outlive the runner; `exec` serves every run.
  explicit IsraeliItaiRunner(const Graph& g, const ExecContext& exec = {});
  ~IsraeliItaiRunner();  // out of line: Net is incomplete here

  DistMatchingResult run(const IsraeliItaiOptions& opts);

 private:
  struct Net;
  const Graph* g_;
  std::unique_ptr<Net> net_;
  std::unique_ptr<faults::MessageFaultInjector> injector_;
  // Per-node state, indexed by node id (each node touches only its own
  // entries during a round); refilled by every run.
  std::vector<EdgeId> matched_edge_;
  std::vector<EdgeId> proposal_edge_;
  std::vector<std::uint8_t> coin_;
  std::vector<std::uint8_t> had_candidates_;
  // Per-arc liveness of the neighbor across that arc.
  std::vector<std::uint8_t> neighbor_free_;
};

/// One run on a fresh IsraeliItaiRunner built with opts.exec.
DistMatchingResult israeli_itai(const Graph& g,
                                const IsraeliItaiOptions& opts = {});

/// The phase budget used when max_phases == 0: 40 + 12 ceil(log2(n+1)),
/// comfortably past the O(log n) w.h.p. convergence point. Exported so
/// the lca oracle simulates exactly the budget the solver runs.
std::uint64_t israeli_itai_default_max_phases(NodeId n);

/// The largest max_phases both the solver and its LCA oracle (which
/// indexes phases with int32) can hold; both reject a larger request.
constexpr std::uint64_t kIsraeliItaiMaxPhases = INT32_MAX;

}  // namespace lps
