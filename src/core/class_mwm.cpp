#include "core/class_mwm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/israeli_itai.hpp"
#include "util/rng.hpp"

namespace lps {

ClassMwmResult class_mwm(const WeightedGraph& wg,
                         const ClassMwmOptions& opts) {
  const Graph& g = wg.graph;
  if (!(opts.class_base > 1.0)) {
    throw std::invalid_argument("class_mwm: class_base must be > 1");
  }
  ClassMwmResult result;
  result.matching = Matching(g.num_nodes());
  if (g.num_edges() == 0) return result;

  // Class index per edge, computed in double and range-checked: a base
  // just above 1 puts indices far outside int.
  const double log_base = std::log(opts.class_base);
  const EdgeId m = g.num_edges();
  std::vector<int> cls(m);
  int lo = std::numeric_limits<int>::max();
  int hi = std::numeric_limits<int>::min();
  for (EdgeId e = 0; e < m; ++e) {
    const double idx = std::floor(std::log(wg.weight(e)) / log_base);
    if (!(idx >= std::numeric_limits<int>::min() &&
          idx <= std::numeric_limits<int>::max())) {
      throw std::invalid_argument(
          "class_mwm: weight class index out of int range (class_base "
          "too close to 1, or a non-positive weight)");
    }
    cls[e] = static_cast<int>(idx);
    lo = std::min(lo, cls[e]);
    hi = std::max(hi, cls[e]);
  }
  // Class index shifted to start at 0.
  auto rank = [&](EdgeId e) {
    return static_cast<std::size_t>(std::int64_t{cls[e]} - lo);
  };
  const std::size_t num_classes =
      static_cast<std::size_t>(std::int64_t{hi} - lo + 1);
  result.num_classes = num_classes;

  // Bucket the edges by class once, ascending class then edge id: time
  // O(m log m) and memory O(m) however many classes are empty.
  std::vector<EdgeId> by_class(m);
  std::iota(by_class.begin(), by_class.end(), EdgeId{0});
  std::stable_sort(by_class.begin(), by_class.end(),
                   [&](EdgeId a, EdgeId b) { return cls[a] < cls[b]; });

  // Step 2: per-class maximal matchings, composed in parallel (the
  // classes partition E, so their channel sets are disjoint: the round
  // count of the simultaneous run is the max over classes). One runner
  // and one mask serve every non-empty class: set the class's edges,
  // run, clear them.
  std::vector<std::vector<EdgeId>> class_matchings;  // ascending class
  std::uint64_t parallel_rounds = 0;
  IsraeliItaiRunner runner(g, opts.exec);
  IsraeliItaiOptions ii;
  ii.max_phases = opts.max_phases_per_class;
  ii.active_edges.assign(m, 0);
  for (std::size_t begin = 0; begin < m;) {
    const std::size_t c = rank(by_class[begin]);
    std::size_t end = begin;
    for (; end < m && rank(by_class[end]) == c; ++end) {
      ii.active_edges[by_class[end]] = 1;
    }
    ii.seed = splitmix64(opts.seed ^ (0x11aa00 + c));
    DistMatchingResult mm = runner.run(ii);
    for (std::size_t i = begin; i < end; ++i) {
      ii.active_edges[by_class[i]] = 0;
    }
    begin = end;
    result.converged = result.converged && mm.converged;
    class_matchings.push_back(mm.matching.edge_ids(g));
    parallel_rounds = std::max(parallel_rounds, mm.stats.rounds);
    // Messages/bits add up across classes; rounds compose in parallel.
    NetStats msgs = mm.stats;
    msgs.rounds = 0;
    result.stats.merge(msgs);
  }
  result.stats.rounds += parallel_rounds;

  // Step 3: survival sweep, heaviest class first. One round per class:
  // the survivors of the current level announce themselves (O(log n)-bit
  // messages from both endpoints); edges of lighter classes die when
  // they hear an adjacent survivor. Within a level there are no
  // conflicts (each M_i is a matching), so endpoints are only marked
  // killed after the whole level is decided.
  std::vector<char> endpoint_killed(g.num_nodes(), 0);
  std::vector<EdgeId> survivors;
  NetStats sweep;
  sweep.rounds = num_classes;
  const std::uint64_t id_bits = node_id_bits(g.num_nodes());
  // Empty classes announce nothing, but their rounds are still charged.
  for (auto it = class_matchings.rbegin(); it != class_matchings.rend();
       ++it) {
    std::vector<EdgeId> level;
    for (EdgeId e : *it) {
      const Edge& ed = g.edge(e);
      if (endpoint_killed[ed.u] || endpoint_killed[ed.v]) continue;
      level.push_back(e);
    }
    for (EdgeId e : level) {
      const Edge& ed = g.edge(e);
      endpoint_killed[ed.u] = 1;
      endpoint_killed[ed.v] = 1;
      // Announcements from both endpoints to all their neighbors.
      sweep.note_messages(g.degree(ed.u) + g.degree(ed.v), id_bits);
      survivors.push_back(e);
    }
  }
  result.stats.merge(sweep);
  result.matching = Matching::from_edges(g, survivors);
  return result;
}

}  // namespace lps
