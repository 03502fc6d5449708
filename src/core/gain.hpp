// Section 4 preliminaries: wrap(), the gain function g(), and the
// derived edge weights w_M. For an unmatched edge (r,s), wrap(r,s) is
// the length-<=3 augmenting structure {(M(r),r), (r,s), (s,M(s))} and
//   w_M(r,s) = g(wrap(r,s)) = w(r,s) - w(M(r),r) - w(s,M(s))
// (missing matched edges contribute 0); w_M is 0 on matched edges.
// Figure 2 of the paper is the worked example; it is reproduced verbatim
// in tests/ and bench/.
#pragma once

#include <vector>

#include "graph/matching.hpp"
#include "runtime/exec_context.hpp"
#include "runtime/round_stats.hpp"

namespace lps {

/// Derived weights w_M for every edge. When `stats` is non-null, the
/// one-round exchange in which every matched node announces its matched
/// edge weight to its neighbors is executed on the synchronous runtime
/// and accounted there (each endpoint then computes w_M locally).
std::vector<double> gain_weights(const WeightedGraph& wg, const Matching& m,
                                 NetStats* stats = nullptr,
                                 const ExecContext& exec = {});

/// wrap(e) w.r.t. m: e plus the matched edges at its endpoints.
/// Requires e unmatched (checked).
std::vector<EdgeId> wrap_edges(const Graph& g, const Matching& m, EdgeId e);

/// Lemma 4.1: M <- M ⊕ (∪_{e in m_prime} wrap(e)). m_prime must be a
/// matching of unmatched edges (checked); the result is validated to be
/// a matching.
void apply_wraps(const Graph& g, Matching& m,
                 const std::vector<EdgeId>& m_prime);

}  // namespace lps
