// The unified solver abstraction: every matching algorithm in src/core
// and src/seq is exposed behind one interface so that benches, examples,
// tests, and future serving layers can enumerate, configure, and compare
// algorithms uniformly instead of hand-rolling a driver per option
// struct. Inspired by how the LCA literature treats algorithms as
// uniformly-queryable black boxes.
//
// The pieces:
//  * Instance      — a graph, optional edge weights, optional known
//                    bipartition. One input type for all solvers.
//  * SolverConfig  — string key/value configuration (read through
//                    util/options' Args) plus the cross-cutting
//                    knobs every algorithm shares: the seed and the
//                    ExecContext (thread pool, shard request).
//  * Capabilities  — what a solver accepts (bipartite/general/weighted)
//                    and what its output means (distributed/exact/
//                    maximal/primitive).
//  * SolveResult   — Matching + NetStats + wall time + named scalar
//                    metrics (iterations, phases, ...).
//  * MatchingSolver — the interface. `solve` is non-virtual: it
//                    validates the config keys and instance shape,
//                    times the run, then delegates to `run`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "runtime/exec_context.hpp"
#include "runtime/round_stats.hpp"
#include "util/options.hpp"

namespace lps::api {

/// One problem instance, consumable by every solver. Weighted solvers
/// require weights; unweighted solvers ignore them.
class Instance {
 public:
  Instance() = default;

  static Instance unweighted(Graph g);
  static Instance weighted(WeightedGraph wg);

  /// Attach a known bipartition (side[v] in {0,1}); solvers that need
  /// one then skip the O(n+m) recomputation.
  Instance& with_side(std::vector<std::uint8_t> side);

  const Graph& graph() const noexcept { return wg_.graph; }
  /// An explicit flag, not weights.empty(): a weighted instance that
  /// happens to have zero edges is still weighted.
  bool has_weights() const noexcept { return weighted_; }
  /// Throws std::logic_error when the instance is unweighted.
  const WeightedGraph& weighted_graph() const;

  const std::optional<std::vector<std::uint8_t>>& side() const noexcept {
    return side_;
  }
  /// The attached side, or a freshly computed bipartition, or nullopt
  /// when the graph is not bipartite.
  std::optional<std::vector<std::uint8_t>> bipartition() const;

  /// Like bipartition().has_value() but without copying the side
  /// vector. O(1) when a side is attached, one BFS otherwise.
  bool is_bipartite() const;

 private:
  WeightedGraph wg_;  // weights unused when !weighted_
  bool weighted_ = false;
  std::optional<std::vector<std::uint8_t>> side_;
};

/// String key/value configuration plus the two universal knobs. Keys
/// are solver-specific (see MatchingSolver::config_keys); values parse
/// on access through args().
class SolverConfig {
 public:
  SolverConfig() = default;

  /// Parse a `k1=v1,k2=v2` list (util/options' Args grammar); the
  /// reserved keys `seed` and `shards` set those knobs directly.
  static SolverConfig parse(const std::string& spec);

  SolverConfig& set(const std::string& key, const std::string& value);
  SolverConfig& seed(std::uint64_t s) noexcept {
    seed_ = s;
    seed_set_ = true;
    return *this;
  }
  /// Shard request for every engine-backed solver (ExecContext::shards,
  /// handed over by exec()); results are bit-identical for any value.
  SolverConfig& shards(unsigned s) noexcept {
    exec_.shards = s;
    return *this;
  }
  /// True once the seed was set explicitly (via seed(), set("seed",..),
  /// or a `seed=` entry in parse()); lets callers layer defaults under
  /// an explicit config seed instead of clobbering it.
  bool seed_was_set() const noexcept { return seed_set_; }
  SolverConfig& pool(ThreadPool* p) noexcept {
    exec_.pool = p;
    return *this;
  }

  /// The solver-specific entries as a reader (diagnostics say "config").
  Args args() const { return Args("config", values_); }

  std::uint64_t seed() const noexcept { return seed_; }
  const ExecContext& exec() const noexcept { return exec_; }
  const std::map<std::string, std::string>& entries() const noexcept {
    return values_;
  }

  /// Canonical `k1=v1,k2=v2,seed=s` form (for logs and JSON echoes).
  std::string to_string() const;

 private:
  std::map<std::string, std::string> values_;
  std::uint64_t seed_ = 1;
  bool seed_set_ = false;
  ExecContext exec_;
};

/// What a solver accepts and what its result means.
struct Capabilities {
  bool bipartite = false;    // accepts bipartite instances
  bool general = false;      // accepts non-bipartite instances
  bool weighted = false;     // optimizes weight; requires weights
  bool distributed = false;  // NetStats rounds/bits are meaningful
  // The two result guarantees below describe runs at the solver's
  // default budget; an explicit truncating cap (max_phases,
  // max_iterations, ...) voids them, just as it zeroes guarantee().
  bool exact = false;        // returns an optimum (within its domain)
  bool maximal = false;      // result is guaranteed maximal
  bool primitive = false;    // not a matching solver (e.g. pipelined_max)
};

struct SolveResult {
  Matching matching;
  NetStats stats;
  double wall_ms = 0.0;  // filled by MatchingSolver::solve
  bool converged = true;
  /// Solver-specific scalars (iterations, phases, num_classes, ...).
  std::map<std::string, double> metrics;
};

class MatchingSolver {
 public:
  virtual ~MatchingSolver() = default;

  virtual std::string name() const = 0;
  virtual std::string description() const = 0;
  virtual Capabilities capabilities() const = 0;

  /// Config keys this solver understands (beyond the universal
  /// seed/pool); solve() rejects anything else so typos fail loudly.
  virtual std::vector<std::string> config_keys() const = 0;

  /// Worst-case approximation guarantee under `config` (1 = exact,
  /// 0 = none stated / not applicable).
  virtual double guarantee(const SolverConfig& config) const = 0;

  /// Throws std::invalid_argument on config keys this solver does not
  /// understand. Called by solve(); also usable up front by harnesses
  /// that do expensive work (oracle runs) before solving.
  void validate_config(const SolverConfig& config) const;

  /// validate_config plus the instance-shape checks (weights present
  /// for weighted solvers). Everything solve() rejects, without running.
  void validate(const Instance& instance, const SolverConfig& config) const;

  /// Validates config keys and instance shape (weights present for
  /// weighted solvers), times the run, and delegates to run().
  /// Throws std::invalid_argument on unknown keys or shape mismatch.
  SolveResult solve(const Instance& instance, const SolverConfig& config) const;

 protected:
  virtual SolveResult run(const Instance& instance,
                          const SolverConfig& config) const = 0;
};

}  // namespace lps::api
