// Section 4 preliminaries: wrap(), the gain function g(), and the
// derived edge weights w_M. For an unmatched edge (r,s), wrap(r,s) is
// the length-<=3 augmenting structure {(M(r),r), (r,s), (s,M(s))} and
//   w_M(r,s) = g(wrap(r,s)) = w(r,s) - w(M(r),r) - w(s,M(s))
// (missing matched edges contribute 0); w_M is 0 on matched edges.
// Figure 2 of the paper is the worked example; it is reproduced verbatim
// in tests/ and bench/.
#pragma once

#include <memory>
#include <vector>

#include "graph/matching.hpp"
#include "runtime/exec_context.hpp"
#include "runtime/round_stats.hpp"

namespace lps {

/// The one-round exchange that derives w_M on one weighted graph,
/// re-runnable: the round network is built once and reset by every
/// run(), so Algorithm 5, which rebuilds G' = (V, E, w_M) every
/// iteration, constructs one network on G per solve.
///
/// A run always executes the exchange on the synchronous runtime. Round
/// 0: every node records its own w(v, M(v)) (0 if free) in the runner's
/// announced-weight column, and every matched node sends a payload-free
/// announcement to all neighbors, metered as the 64-bit weight it
/// stands for. Round 1: each receiver reads the announced weight of
/// every sender in its inbox by reference (it cannot change before the
/// next run, and the round barrier orders the write before the read)
/// and computes w_M locally for the edge. One endpoint writes each
/// edge: the free one, or the smaller id when both are matched; an edge
/// with two free endpoints carries no message and keeps w(e). Results
/// are bit-identical to w(e) - w(u, M(u)) - w(v, M(v)) with u < v,
/// subtracted in that order, for any thread or shard count.
class GainRunner {
 public:
  /// `wg` must outlive the runner; `exec` serves every run.
  explicit GainRunner(const WeightedGraph& wg, const ExecContext& exec = {});
  ~GainRunner();  // out of line: Net is incomplete here

  /// w_M for every edge under `m`. The exchange's rounds and messages
  /// are merged into *stats when it is non-null. Throws
  /// std::invalid_argument if `m` is not a matching of this graph's
  /// vertices (wrong size, or an edge id out of range or not incident
  /// to its vertex).
  std::vector<double> run(const Matching& m, NetStats* stats = nullptr);

 private:
  struct Net;
  const WeightedGraph* wg_;
  std::unique_ptr<Net> net_;
  std::vector<double> announced_;  // w(v, M(v)) per node, 0 if free
};

/// Derived weights w_M for every edge: one run on a fresh GainRunner.
std::vector<double> gain_weights(const WeightedGraph& wg, const Matching& m,
                                 NetStats* stats = nullptr,
                                 const ExecContext& exec = {});

/// wrap(e) w.r.t. m: e plus the matched edges at its endpoints.
/// Requires e unmatched (checked).
std::vector<EdgeId> wrap_edges(const Graph& g, const Matching& m, EdgeId e);

/// Lemma 4.1: M <- M ⊕ (∪_{e in m_prime} wrap(e)). m must be a matching
/// of g's vertices and m_prime a matching of unmatched edges (both
/// checked); the result is validated to be a matching.
void apply_wraps(const Graph& g, Matching& m,
                 const std::vector<EdgeId>& m_prime);

}  // namespace lps
