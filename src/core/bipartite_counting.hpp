// Algorithm 3: counting augmenting paths in bipartite graphs by a
// synchronized layered BFS from all free X-nodes (Section 3.2, Fig. 1).
//
// Round 0: every free X node sends 1 to all (active) neighbors.
// A node records the counts arriving in the *first* round it receives
// anything (c_v[i] per incident edge i; n_v = sum). Matched Y nodes
// forward n_v to their mate; X nodes forward n_v to their unmatched
// neighbors; free Y nodes are terminals (each completed arrival is an
// augmenting path). Later arrivals are discarded — they correspond to
// non-shortest paths through already-visited nodes (the "back-arrows"
// of Figure 1).
//
// Counts are BigCounters: Lemma 3.6 bounds n_v by Delta^{ceil(d/2)},
// far beyond 64 bits. Message sizes are metered at the serialized
// chunked width the paper's pipeline would use.
#pragma once

#include <memory>
#include <vector>

#include "graph/matching.hpp"
#include "runtime/exec_context.hpp"
#include "runtime/round_stats.hpp"
#include "util/bigint.hpp"

namespace lps {

inline constexpr std::uint32_t kUnreached = 0xffffffffu;

struct CountingResult {
  /// d(v): the round of first arrival (free X nodes have 0); kUnreached
  /// if the BFS never reached the node within max_len rounds.
  std::vector<std::uint32_t> depth;
  /// n_v: the number of shortest augmenting-path prefixes ending at v
  /// (the sum of the counts that arrived in v's first-arrival round).
  std::vector<BigCounter> total;
  /// endpoint[v] == 1 iff v is a free Y node the BFS reached: each such
  /// node terminates n_v augmenting paths of length depth[v].
  std::vector<char> endpoint;
  NetStats stats;

  bool is_path_endpoint(NodeId v) const { return endpoint[v] != 0; }
};

/// Algorithm 3 on one graph, re-runnable: the count network and the
/// result columns are built once and reused by every run(), so the
/// O(log n) counting passes of one Aug call allocate nothing once warm.
///
/// The per-edge counts c_v[i] are not stored. What v receives on its
/// i-th incidence in its first-arrival round is exactly n_u of the
/// sender u one layer below (X nodes send on every active unmatched
/// edge, matched Y nodes on their matched edge), so arrival() reads it
/// back from the frozen result instead of keeping a per-arc copy.
class PathCounter {
 public:
  /// `side` 2-colors the active subgraph (side 0 = X); it and `g` must
  /// outlive the counter.
  PathCounter(const Graph& g, const std::vector<std::uint8_t>& side,
              const ExecContext& exec = {});
  ~PathCounter();  // out of line: Net is incomplete here

  /// Run the counting BFS for paths of length <= max_len (odd) against
  /// matching `m`; `active_edges` restricts to a logical subgraph (empty
  /// = all edges). `m` and `active_edges` must stay unchanged while the
  /// result and arrival() are used. Matched edges outside the active
  /// set must not exist between two active-incident nodes (Algorithm 4
  /// guarantees this for Ĝ).
  const CountingResult& run(const Matching& m, int max_len,
                            const std::vector<char>& active_edges);

  const CountingResult& result() const { return out_; }
  /// Moves the last run's result out (the counter must be run again
  /// before its result is read).
  CountingResult take_result() { return std::move(out_); }

  /// c_v[i] of the last run: the count that arrived on v's i-th
  /// incidence in v's first-arrival round, or nullptr if none did.
  const BigCounter* arrival(NodeId v, std::size_t i) const;

 private:
  /// True iff a node u reached by the BFS forwards its count along e.
  bool forwards(NodeId u, EdgeId e) const;

  struct Net;
  const Graph* g_;
  const std::vector<std::uint8_t>* side_;
  const Matching* m_ = nullptr;
  const std::vector<char>* active_ = nullptr;
  std::unique_ptr<Net> net_;
  CountingResult out_;
};

/// One counting pass (a fresh PathCounter run once); see PathCounter.
CountingResult count_augmenting_paths(const Graph& g,
                                      const std::vector<std::uint8_t>& side,
                                      const Matching& m, int max_len,
                                      const std::vector<char>& active_edges,
                                      const ExecContext& exec = {});

/// Brute-force oracle: the number of augmenting paths of length exactly
/// `len` w.r.t. m ending at free Y node `y`, restricted to active edges.
/// Exponential; used by tests and the Figure 1 bench to validate counts.
std::uint64_t count_paths_oracle(const Graph& g,
                                 const std::vector<std::uint8_t>& side,
                                 const Matching& m, NodeId y, int len,
                                 const std::vector<char>& active_edges);

}  // namespace lps
