#include "api/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>

#include <chrono>
#include <thread>

#include "api/json.hpp"
#include "api/ledger.hpp"
#include "api/provenance.hpp"
#include "api/registry.hpp"
#include "dynamic/matcher.hpp"
#include "dynamic/stream.hpp"
#include "faults/injector.hpp"
#include "faults/recovery.hpp"
#include "faults/scenarios.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "lca/batch.hpp"
#include "lca/oracle.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace lps::api {
namespace {

/// nullopt = no weight model requested; a (possibly empty, when m = 0)
/// vector otherwise, so zero-edge instances stay weighted.
std::optional<std::vector<double>> make_weights(const Args& args, EdgeId m,
                                                Rng& rng) {
  const std::string model = args.get("w", "");
  if (model.empty()) return std::nullopt;
  if (model == "uniform") {
    return uniform_weights(m, args.get_double("wlo", 1.0),
                           args.get_double("whi", 100.0), rng);
  }
  if (model == "integer") {
    // Integer weights stay exact in a double up to 2^53.
    return integer_weights(m, args.get_count("wmax", 64, 1ull << 53), rng);
  }
  if (model == "exp") {
    return exponential_weights(m, args.get_double("wmean", 8.0), rng);
  }
  if (model == "pow2") {
    return power_of_two_weights(
        m, static_cast<int>(args.get_count("wlevels", 10, 60)), rng);
  }
  throw std::invalid_argument("generator weight model '" + model +
                              "' not one of uniform/integer/exp/pow2");
}

Instance finish(const Args& args, Graph g, Rng& rng,
                std::vector<std::uint8_t> side = {}) {
  std::optional<std::vector<double>> w = make_weights(args, g.num_edges(), rng);
  args.check_all_used();
  Instance inst = w.has_value()
                      ? Instance::weighted(
                            make_weighted(std::move(g), std::move(*w)))
                      : Instance::unweighted(std::move(g));
  if (!side.empty()) inst.with_side(std::move(side));
  return inst;
}

}  // namespace

Instance make_instance(const std::string& spec, std::uint64_t seed) {
  const auto colon = spec.find(':');
  const std::string family = spec.substr(0, colon);
  const std::string kv =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  const Args args("generator '" + family + "'", kv);
  Rng rng(seed);

  const auto node_arg = [&](const char* key) {
    return static_cast<NodeId>(args.require_count(key, kInvalidNode - 1));
  };

  // Sizes are checked in double arithmetic before anything is
  // allocated: a node total or expected edge count past the 32-bit id
  // range would wrap (grid's rows*cols, a+b) or allocate for minutes.
  // path, cycle, star, the trees and increasing_path stay within range
  // whenever their one node_arg does.
  const auto check_size = [&](double nodes, double edges) {
    if (nodes > static_cast<double>(kInvalidNode) - 1 ||
        edges > static_cast<double>(kInvalidEdge) - 1) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "%.0f nodes, %.0f expected edges: past the 32-bit ids",
                    nodes, edges);
      throw std::invalid_argument("generator '" + family + "': " + buf);
    }
  };

  if (family == "path") return finish(args, path_graph(node_arg("n")), rng);
  if (family == "cycle") return finish(args, cycle_graph(node_arg("n")), rng);
  if (family == "complete") {
    const NodeId n = node_arg("n");
    check_size(n, 0.5 * n * (n - 1.0));
    return finish(args, complete_graph(n), rng);
  }
  if (family == "star") return finish(args, star_graph(node_arg("n")), rng);
  if (family == "binary_tree") {
    return finish(args, binary_tree(node_arg("n")), rng);
  }
  if (family == "tree") {
    return finish(args, random_tree(node_arg("n"), rng), rng);
  }
  if (family == "grid") {
    const NodeId rows = node_arg("rows");
    const NodeId cols = node_arg("cols");
    const double cells = static_cast<double>(rows) * cols;
    check_size(cells, 2.0 * cells - rows - cols);
    // The parity 2-coloring is known by construction; attaching it
    // spares every bipartite-only solver the BFS.
    std::vector<std::uint8_t> side(static_cast<std::size_t>(rows) * cols);
    for (NodeId r = 0; r < rows; ++r) {
      for (NodeId c = 0; c < cols; ++c) {
        side[static_cast<std::size_t>(r) * cols + c] = (r + c) % 2;
      }
    }
    return finish(args, grid_graph(rows, cols), rng, std::move(side));
  }
  if (family == "complete_bipartite") {
    const NodeId a = node_arg("a");
    const NodeId b = node_arg("b");
    check_size(static_cast<double>(a) + b, static_cast<double>(a) * b);
    std::vector<std::uint8_t> side(a + b, 0);
    std::fill(side.begin() + a, side.end(), std::uint8_t{1});
    return finish(args, complete_bipartite(a, b), rng, std::move(side));
  }
  // A finite p in [0, 1], or a finite deg >= 0; a deg at or above the
  // denominator gives the complete graph.
  const auto density_arg = [&](NodeId denominator) {
    const bool has_p = args.has("p");
    if (has_p && args.has("deg")) {
      throw std::invalid_argument("generator '" + family +
                                  "': 'p' and 'deg' are mutually exclusive");
    }
    const std::string key = has_p ? "p" : "deg";
    const double v = args.get_double(key, 4.0);  // the default deg
    if (!std::isfinite(v) || v < 0.0 || (has_p && v > 1.0)) {
      throw std::invalid_argument("generator '" + family + "': key '" + key +
                                  "' out of range: " + args.get(key, ""));
    }
    return has_p ? v : v / static_cast<double>(denominator);
  };

  if (family == "er") {
    const NodeId n = node_arg("n");
    const double p = density_arg(n);
    check_size(n, std::min(p, 1.0) * 0.5 * n * (n - 1.0));
    return finish(args, erdos_renyi(n, p, rng), rng);
  }
  if (family == "bipartite") {
    const NodeId nx = node_arg("nx");
    const NodeId ny = node_arg("ny");
    const double p = density_arg(ny);
    check_size(static_cast<double>(nx) + ny, std::min(p, 1.0) * nx * ny);
    BipartiteGraph bg = random_bipartite(nx, ny, p, rng);
    return finish(args, std::move(bg.graph), rng, std::move(bg.side));
  }
  if (family == "bipartite_regular") {
    const NodeId nx = node_arg("nx");
    const NodeId ny = node_arg("ny");
    const NodeId d = node_arg("d");
    check_size(static_cast<double>(nx) + ny, static_cast<double>(nx) * d);
    BipartiteGraph bg = random_bipartite_regular_left(nx, ny, d, rng);
    return finish(args, std::move(bg.graph), rng, std::move(bg.side));
  }
  if (family == "regular") {
    const NodeId n = node_arg("n");
    const NodeId d = node_arg("d");
    check_size(n, 0.5 * n * d);
    return finish(args, random_regular(n, d, rng), rng);
  }
  if (family == "tight_chain") {
    const int k = static_cast<int>(
        args.require_count("k", std::numeric_limits<int>::max()));
    const NodeId copies = node_arg("copies");
    check_size((2.0 * k + 2) * copies, (2.0 * k + 1) * copies);
    TightChain tc = tight_bipartite_chain(k, copies);
    return finish(args, std::move(tc.graph), rng, std::move(tc.side));
  }
  if (family == "greedy_trap") {
    const NodeId gadgets = node_arg("gadgets");
    check_size(4.0 * gadgets, 3.0 * gadgets);
    WeightedGraph wg =
        greedy_trap_path(gadgets, args.get_double("eps", 0.001));
    args.check_all_used();
    return Instance::weighted(std::move(wg));
  }
  if (family == "increasing_path") {
    WeightedGraph wg = increasing_path(node_arg("n"));
    args.check_all_used();
    return Instance::weighted(std::move(wg));
  }
  throw std::invalid_argument("unknown generator family '" + family +
                              "' in spec '" + spec + "'");
}

namespace {

struct OracleChoice {
  std::string solver;  // "" = none
  std::string kind;    // "exact" | "upper_bound" | "reference" | "none"
  /// Multiplier turning the oracle's objective into a certified upper
  /// bound on the optimum: 1 for exact oracles, 1/guarantee for
  /// approximate ones (a g-approximation M has OPT <= w(M)/g).
  double bound_factor = 1.0;
};

/// Exact when affordable, certified 1/guarantee-scaled bound otherwise.
/// `weighted_objective` is the *solver's* objective, not the instance's:
/// a weight-blind solver on a weighted instance is measured (and its
/// oracle chosen) in cardinality, so its guarantee stays comparable.
/// `bipartite` is passed in so the caller's one BFS is the only one.
OracleChoice resolve_oracle(const std::string& requested, const Instance& inst,
                            bool weighted_objective, bool bipartite) {
  if (requested == "none") return {"", "none", 1.0};
  if (requested != "auto") {
    const MatchingSolver& s = SolverRegistry::global().at(requested);
    // Primitives return no matching, so their objective is always 0.
    if (s.capabilities().primitive) {
      throw std::invalid_argument("oracle '" + requested +
                                  "' is a primitive, not a matching solver");
    }
    // An oracle optimizing a different objective than the one the run
    // is measured in certifies nothing (e.g. the Hopcroft-Karp optimum
    // is no weight bound): reject rather than emit a bogus "exact".
    if (s.capabilities().weighted != weighted_objective) {
      throw std::invalid_argument(
          "oracle '" + requested + "' optimizes " +
          (s.capabilities().weighted ? "weight" : "cardinality") +
          " but the run is measured in " +
          (weighted_objective ? "weight" : "cardinality"));
    }
    if (s.capabilities().exact) return {requested, "exact", 1.0};
    const double g = s.guarantee(SolverConfig());
    // A guarantee-less oracle certifies nothing: the comparison is just
    // a reference ratio, not a bound.
    if (g <= 0.0) return {requested, "reference", 1.0};
    return {requested, "upper_bound", 1.0 / g};
  }
  const NodeId n = inst.graph().num_nodes();
  // Single source of truth for the fallback's bound: its own guarantee
  // (a g-approximation M certifies OPT <= objective(M)/g).
  const auto certified = [](const char* name) {
    const double g =
        SolverRegistry::global().at(name).guarantee(SolverConfig());
    return OracleChoice{name, "upper_bound", 1.0 / g};
  };
  if (weighted_objective) {
    if (bipartite && n <= 1000) return {"hungarian", "exact", 1.0};
    if (n <= 20) return {"exact_mwm_small", "exact", 1.0};
    return certified("greedy_mwm");
  }
  if (bipartite) return {"hopcroft_karp", "exact", 1.0};
  if (n <= 400) return {"blossom", "exact", 1.0};
  return certified("greedy_mcm");
}

double objective(const Instance& inst, const Matching& m,
                 bool weighted_objective) {
  return weighted_objective ? m.weight(inst.weighted_graph())
                            : static_cast<double>(m.size());
}

/// Salt for the query-sampling substream, so the sampled edge stream is
/// independent of every solver/generator draw under the same seed.
constexpr std::uint64_t kLcaQuerySalt = 0x9c5a11edull;

/// The LCA leg: build the oracle fleet, fan the edge queries across the
/// pool, audit agreement against the global matching when the oracle
/// pairs with the run's solver, and record the cost counters.
void run_lca_leg(const RunSpec& spec, const Instance& inst,
                 const SolverConfig& config, const Matching& global,
                 ThreadPool* pool, RunResult& out) {
  std::string oracle_name = spec.lca;
  if (oracle_name == "auto") {
    if (!lca::has_oracle(spec.solver)) {
      throw std::invalid_argument("lca=auto: solver '" + spec.solver +
                                  "' has no LCA oracle");
    }
    oracle_name = spec.solver;
  }
  const bool paired = oracle_name == spec.solver;
  lca::OracleOptions oopts;
  oopts.seed = config.seed();
  oopts.cache_capacity = static_cast<std::size_t>(spec.lca_cache);
  // Only a paired oracle inherits the solver's config keys: an oracle
  // exercised against a different solver's run would reject them.
  if (paired) oopts.config = config.entries();
  const Graph& g = inst.graph();
  // Validate the name (and the config keys) even when there is nothing
  // to query, so typos fail loudly on zero-edge sweep rows too.
  lca::BatchEngine engine(
      [&] { return lca::make_oracle(oracle_name, g, oopts); }, pool);
  out.lca_oracle = oracle_name;
  if (g.num_edges() == 0) return;

  std::vector<EdgeId> queries;
  if (spec.lca_queries == 0) {
    queries.resize(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) queries[e] = e;
  } else {
    Rng rng = Rng::substream(config.seed(), kLcaQuerySalt);
    queries.reserve(spec.lca_queries);
    for (std::uint64_t i = 0; i < spec.lca_queries; ++i) {
      queries.push_back(static_cast<EdgeId>(rng.below(g.num_edges())));
    }
  }
  const lca::EdgeBatchResult batch = engine.query_edges(queries);
  out.lca_queries = batch.stats.oracle.queries;
  out.lca_probes_per_query = batch.stats.oracle.probes_per_query();
  out.lca_queries_per_sec = batch.stats.queries_per_sec();
  out.lca_cache_hit_rate = batch.stats.oracle.cache_hit_rate();
  if (paired) {
    out.lca_agree = 1;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const bool global_says = global.contains(g, queries[i]);
      if (global_says != (batch.in_matching[i] != 0)) {
        out.lca_agree = 0;
        break;
      }
    }
  }
}

/// The dynamic leg: stream the pre-built update trace through the
/// pre-built maintainer and measure throughput, recourse, and the
/// approximation ratio against a from-scratch registry solve at
/// checkpoints along the stream. Checkpoint solves run off the clock —
/// they are measurement, not maintenance. Stream and maintainer are
/// constructed (and their specs rejected) eagerly in run_one so every
/// malformed spec fails before any solve work, on the same path.
/// When `fault_plan` carries graph-layer faults, a FaultSession runs
/// its crash/recover + adversarial-delete epochs against the maintained
/// state after the stream, landing the degradation metrics in the
/// fault_* fields.
void run_dynamic_leg(const RunSpec& spec, const faults::FaultPlan& fault_plan,
                     const dynamic::StreamSpec& stream,
                     dynamic::DynamicMatcher& matcher, RunResult& out) {
  out.dynamic_maintainer = matcher.name();

  // Exact baseline while affordable, certified-reference greedy beyond.
  // Decided per checkpoint from the *current* snapshot: growing streams
  // (pa, vertex churn) must not drag the O(n^3)-class exact oracle to
  // scales it was never meant for just because the stream started small.
  const auto ratio_now = [&]() {
    const dynamic::Snapshot snap = matcher.graph().snapshot();
    out.dynamic_baseline =
        snap.graph.num_nodes() <= 400 ? "blossom" : "greedy_mcm";
    if (snap.graph.num_edges() == 0) return 1.0;
    SolverConfig config;
    config.seed(spec.solver_seed);
    const SolveResult solved =
        SolverRegistry::global().at(out.dynamic_baseline).solve(
            Instance::unweighted(snap.graph), config);
    if (solved.matching.size() == 0) return 1.0;
    return static_cast<double>(matcher.matching_size()) /
           static_cast<double>(solved.matching.size());
  };

  // The bootstrap prefix (churn/adversarial's m0 build inserts) is
  // warm-up, not workload: it runs off the clock and outside the
  // recourse accounting, so updates/sec measures maintenance under
  // churn on the standing graph, not bulk construction.
  const std::uint64_t total = stream.trace.size();
  const std::uint64_t bootstrap = stream.bootstrap;
  for (std::uint64_t i = 0; i < bootstrap; ++i) {
    matcher.apply(stream.trace[i]);
  }
  const std::uint64_t measured = total - bootstrap;
  const std::uint64_t recourse_before = matcher.stats().recourse;
  std::uint64_t next_checkpoint =
      spec.dynamic_checkpoints > 0
          ? std::max<std::uint64_t>(1, measured / spec.dynamic_checkpoints)
          : measured + 1;
  const std::uint64_t checkpoint_step = next_checkpoint;
  double ratio_min = 2.0;
  std::chrono::steady_clock::duration applied{0};
  for (std::uint64_t i = 0; i < measured; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    matcher.apply(stream.trace[bootstrap + i]);
    applied += std::chrono::steady_clock::now() - t0;
    if (i + 1 >= next_checkpoint && i + 1 < measured) {
      next_checkpoint += checkpoint_step;
      ratio_min = std::min(ratio_min, ratio_now());
    }
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    matcher.flush();
    applied += std::chrono::steady_clock::now() - t0;
  }

  out.dynamic_bootstrap_updates = bootstrap;
  out.dynamic_updates = measured;
  const double secs = std::chrono::duration<double>(applied).count();
  out.dynamic_updates_per_sec =
      secs > 0.0 ? static_cast<double>(measured) / secs : 0.0;
  out.dynamic_recourse_per_update =
      measured > 0 ? static_cast<double>(matcher.stats().recourse -
                                         recourse_before) /
                         static_cast<double>(measured)
                   : 0.0;
  out.dynamic_final_size = matcher.matching_size();
  out.dynamic_final_edges = matcher.graph().num_live_edges();
  if (spec.dynamic_checkpoints > 0) {
    out.dynamic_ratio = ratio_now();
    out.dynamic_ratio_min = std::min(ratio_min, out.dynamic_ratio);
  }
  try {
    matcher.check_matching();
    matcher.graph().check_invariants();
    out.dynamic_valid = true;
  } catch (const std::logic_error&) {
    out.dynamic_valid = false;
  }

  // Graph-layer fault epochs run against the post-stream state, so the
  // dynamic_* fields above describe the churn phase and the fault_*
  // fields describe degradation and recovery relative to it.
  if (fault_plan.graph_faults() && fault_plan.epochs > 0) {
    faults::FaultSession session(matcher, fault_plan, spec.solver_seed);
    const faults::SessionResult s = session.run();
    out.fault_epochs = s.epochs.size();
    out.fault_all_valid = s.all_valid;
    out.fault_min_ratio = s.min_ratio;
    out.fault_final_ratio = s.final_ratio;
    out.fault_final_valid = s.final_valid;
    out.fault_baseline_size = s.baseline_size;
    out.fault_crashed = s.crashed;
    out.fault_revived = s.revived;
    out.fault_adversarial = s.adversarial;
    out.fault_reinserted = s.reinserted;
    out.fault_recourse = s.total_recourse;
    out.fault_recovery_p50_ns = s.recovery_p50_ns;
    out.fault_recovery_p99_ns = s.recovery_p99_ns;
  }
}

/// A point-in-time copy of every instrument the run summary reads.
/// run_one snapshots around each phase and subtracts, so one process
/// can run many runs without resetting the global registry.
struct TelemetrySnap {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  telemetry::HistogramSnapshot round_ns;
  telemetry::HistogramSnapshot p1_ns;
  telemetry::HistogramSnapshot p2_ns;
  telemetry::HistogramSnapshot sort_ns;
  telemetry::HistogramSnapshot step_ns;
  std::vector<std::uint64_t> shard_ns;
  std::vector<std::uint64_t> worker_ns;
  std::size_t series_size = 0;
  telemetry::HistogramSnapshot lca_query_ns;
  telemetry::HistogramSnapshot dyn_update_ns;
  telemetry::HistogramSnapshot fault_recovery_ns;
};

TelemetrySnap snap_telemetry() {
  TelemetrySnap s;
  telemetry::EngineMetrics& em = telemetry::EngineMetrics::get();
  s.rounds = em.rounds.value();
  s.messages = em.messages_delivered.value();
  s.round_ns = em.round_ns.snapshot();
  s.p1_ns = em.exchange_p1_ns.snapshot();
  s.p2_ns = em.exchange_p2_ns.snapshot();
  s.sort_ns = em.inbox_sort_ns.snapshot();
  s.step_ns = em.step_ns.snapshot();
  s.shard_ns = em.shard_exchange_ns.values();
  s.worker_ns = em.worker_busy_ns.values();
  s.series_size = em.messages_per_round.size();
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  s.lca_query_ns = reg.histogram("lca.query_ns").snapshot();
  s.dyn_update_ns = reg.histogram("dynamic.update_ns").snapshot();
  s.fault_recovery_ns = reg.histogram("faults.recovery_ns").snapshot();
  return s;
}

std::vector<std::uint64_t> vec_delta(std::vector<std::uint64_t> after,
                                     const std::vector<std::uint64_t>& before) {
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    after[i] -= before[i];
  }
  return after;
}

/// Fold the solve-phase delta (before -> after_solve) plus the optional
/// legs' histograms (before -> end) into the JSON-ready digest.
TelemetrySummary summarize_telemetry(const TelemetrySnap& before,
                                     const TelemetrySnap& after_solve,
                                     const TelemetrySnap& end) {
  TelemetrySummary t;
  t.enabled = telemetry::enabled();
  t.rounds = after_solve.rounds - before.rounds;
  t.messages_delivered = after_solve.messages - before.messages;

  telemetry::HistogramSnapshot round = after_solve.round_ns;
  round -= before.round_ns;
  t.round_ns_mean = round.mean();
  t.round_ns_p50 = round.percentile(50);
  t.round_ns_p90 = round.percentile(90);
  t.round_ns_p99 = round.percentile(99);
  t.round_ns_max = round.max;

  const auto per_round_mean = [&](telemetry::HistogramSnapshot h,
                                  const telemetry::HistogramSnapshot& b) {
    h -= b;
    return t.rounds == 0 ? 0.0
                         : static_cast<double>(h.sum) /
                               static_cast<double>(t.rounds);
  };
  t.exchange_p1_ns_mean = per_round_mean(after_solve.p1_ns, before.p1_ns);
  t.exchange_p2_ns_mean = per_round_mean(after_solve.p2_ns, before.p2_ns);
  t.inbox_sort_ns_mean = per_round_mean(after_solve.sort_ns, before.sort_ns);
  t.step_ns_mean = per_round_mean(after_solve.step_ns, before.step_ns);

  t.worker_busy_ns = vec_delta(after_solve.worker_ns, before.worker_ns);
  telemetry::HistogramSnapshot step = after_solve.step_ns;
  step -= before.step_ns;
  if (t.worker_busy_ns.size() > 1 && step.sum > 0) {
    std::uint64_t busy = 0;
    for (std::uint64_t w : t.worker_busy_ns) busy += w;
    const double span = static_cast<double>(step.sum) *
                        static_cast<double>(t.worker_busy_ns.size());
    t.worker_stall_frac =
        std::clamp(1.0 - static_cast<double>(busy) / span, 0.0, 1.0);
  }

  const std::vector<std::uint64_t> shard =
      vec_delta(after_solve.shard_ns, before.shard_ns);
  std::uint64_t shard_sum = 0;
  for (std::size_t s = 0; s < shard.size(); ++s) {
    if (shard[s] == 0) continue;
    ++t.shards_touched;
    shard_sum += shard[s];
    if (shard[s] > t.shard_busy_max_ns) {
      t.shard_busy_max_ns = shard[s];
      t.hottest_shard = s;
    }
  }
  if (t.shards_touched > 0) {
    t.shard_busy_mean_ns = static_cast<double>(shard_sum) /
                           static_cast<double>(t.shards_touched);
    t.shard_imbalance =
        static_cast<double>(t.shard_busy_max_ns) / t.shard_busy_mean_ns;
  }

  const std::vector<std::uint64_t> series =
      telemetry::EngineMetrics::get().messages_per_round.values_from(
          before.series_size);
  const std::size_t rounds_in_series =
      std::min<std::size_t>(series.size(), after_solve.series_size >
                                                   before.series_size
                                               ? after_solve.series_size -
                                                     before.series_size
                                               : 0);
  t.messages_per_round_stride =
      std::max<std::uint64_t>(1, (rounds_in_series + 63) / 64);
  for (std::size_t i = 0; i < rounds_in_series;
       i += t.messages_per_round_stride) {
    t.messages_per_round.push_back(series[i]);
  }

  telemetry::HistogramSnapshot lca = end.lca_query_ns;
  lca -= before.lca_query_ns;
  if (lca.count > 0) {
    t.lca_query_ns_p50 = lca.percentile(50);
    t.lca_query_ns_p99 = lca.percentile(99);
  }
  telemetry::HistogramSnapshot dyn = end.dyn_update_ns;
  dyn -= before.dyn_update_ns;
  if (dyn.count > 0) {
    t.dynamic_update_ns_p50 = dyn.percentile(50);
    t.dynamic_update_ns_p99 = dyn.percentile(99);
  }
  telemetry::HistogramSnapshot rec = end.fault_recovery_ns;
  rec -= before.fault_recovery_ns;
  if (rec.count > 0) {
    t.faults_recovery_ns_p50 = rec.percentile(50);
    t.faults_recovery_ns_p99 = rec.percentile(99);
  }
  return t;
}

}  // namespace

RunResult run_one(const RunSpec& spec) {
  Instance inst = make_instance(spec.generator, spec.instance_seed);
  // Attach the bipartition once: oracle resolution, the oracle, and the
  // solver would each recompute the O(n+m) BFS otherwise. `bipartite`
  // remembers the outcome so non-bipartite runs pay the BFS only once.
  bool bipartite = inst.side().has_value();
  if (!bipartite) {
    if (auto side = inst.graph().bipartition()) {
      inst.with_side(std::move(*side));
      bipartite = true;
    }
  }
  const MatchingSolver& solver = SolverRegistry::global().at(spec.solver);

  SolverConfig config = SolverConfig::parse(spec.config);
  // A `seed=` entry in the config string wins over the RunSpec default.
  if (!config.seed_was_set()) config.seed(spec.solver_seed);
  // Likewise `shards=`; 0 means auto in both places, so only a nonzero
  // config entry can differ from the RunSpec default.
  if (config.exec().shards == 0) config.shards(spec.shards);
  // Fault plan: parsed — and rejected — before any solve work, on the
  // same error path as generator and config typos, so the runner's
  // one-line-diagnostic contract holds for fault specs too.
  const faults::FaultPlan fault_plan = faults::make_fault_plan(spec.faults);
  if (fault_plan.message_faults()) {
    const std::vector<std::string> keys = solver.config_keys();
    if (std::find(keys.begin(), keys.end(), "faults") == keys.end()) {
      throw std::invalid_argument("run_one: solver '" + spec.solver +
                                  "' does not take message-layer faults "
                                  "(no 'faults' config key)");
    }
    config.set("faults", spec.faults);
  }
  if (fault_plan.graph_faults() && spec.dynamic.empty()) {
    throw std::invalid_argument(
        "run_one: fault plan '" + fault_plan.name +
        "' has graph-layer faults (flap/adversarial) but no dynamic leg; "
        "set dynamic and dynamic_stream");
  }
  // Fail everything solve() would reject before the (possibly O(n^3))
  // oracle run below: config typos and instance-shape mismatches.
  solver.validate(inst, config);
  // The dynamic leg's specs get the same eager treatment: stream typos,
  // unknown maintainer names, and bad maintainer configs all fail here,
  // on the one error path, not after the solve already ran.
  std::optional<dynamic::StreamSpec> dyn_stream;
  std::unique_ptr<dynamic::DynamicMatcher> dyn_matcher;
  if (!spec.dynamic.empty()) {
    if (spec.dynamic_stream.empty()) {
      throw std::invalid_argument(
          "run_one: dynamic leg requires a dynamic_stream spec");
    }
    dyn_stream =
        dynamic::make_update_stream(spec.dynamic_stream, spec.instance_seed);
    dyn_matcher = dynamic::make_matcher(
        spec.dynamic, dynamic::DynamicGraph(dyn_stream->initial_nodes),
        Args("dynamic config", spec.dynamic_config).entries());
  }
  std::unique_ptr<ThreadPool> pool;
  if (spec.threads != 1) {
    pool = std::make_unique<ThreadPool>(spec.threads);
    config.pool(pool.get());
  }

  RunResult out;
  out.spec = spec;
  if (fault_plan.any()) out.fault_plan = fault_plan.to_spec();
  out.n = inst.graph().num_nodes();
  out.m = inst.graph().num_edges();
  out.max_degree = inst.graph().max_degree();
  out.weighted = inst.has_weights();

  // Ratios are measured in the solver's own objective: weight only when
  // the solver optimizes weight, cardinality otherwise (so a 1/2-MCM
  // guarantee is never compared against a max-weight optimum).
  const bool weighted_objective =
      solver.capabilities().weighted && inst.has_weights();

  // Oracle first: Algorithm 4's certified early exit consumes the exact
  // optimum through the uniform config path when the solver accepts it.
  // Primitives have no matching objective, so the comparison is skipped.
  const OracleChoice oracle =
      solver.capabilities().primitive
          ? OracleChoice{"", "none", 1.0}
          : resolve_oracle(spec.oracle, inst, weighted_objective, bipartite);
  out.oracle_solver = oracle.solver;
  out.optimum_kind = oracle.kind;
  // The solver resolved as its own oracle (an exact solver, or the
  // certified greedy fallback measuring greedy itself): same name,
  // same seed, and no config entries means the oracle solve would be
  // identical — reuse the solver's result instead of running it twice.
  const bool self_oracle = oracle.solver == spec.solver &&
                           config.entries().empty() &&
                           config.seed() == spec.solver_seed;
  if (!oracle.solver.empty() && !self_oracle) {
    const MatchingSolver& oracle_solver =
        SolverRegistry::global().at(oracle.solver);
    SolverConfig oracle_config;
    oracle_config.seed(spec.solver_seed);
    const SolveResult oracle_result = oracle_solver.solve(inst, oracle_config);
    out.optimum = objective(inst, oracle_result.matching, weighted_objective) *
                  oracle.bound_factor;
    if (spec.feed_oracle && oracle.kind == "exact") {
      const auto keys = solver.config_keys();
      if (std::find(keys.begin(), keys.end(), "oracle_optimum_size") !=
          keys.end()) {
        config.set("oracle_optimum_size",
                   std::to_string(oracle_result.matching.size()));
      }
    }
  }

  // Telemetry window: metrics cover only the solver's own solve (the
  // oracle ran above, outside the window); the optional legs contribute
  // their dedicated histograms below. The prior enabled state is
  // restored on the way out so nested/test callers see no side effect.
  const bool want_trace = !spec.trace.empty();
  const bool want_metrics = spec.telemetry || want_trace;
  const bool prev_metrics = telemetry::enabled();
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  if (want_metrics) telemetry::set_enabled(true);
  if (want_trace) {
    tracer.reset();
    tracer.set_recording(true);
  }
  // Structured event log: recorded over the same window as the trace
  // (solve + optional legs), written as JSONL at the end.
  const bool want_events = !spec.events.empty();
  telemetry::EventLog& elog = telemetry::EventLog::global();
  if (want_events) {
    elog.reset();
    elog.set_recording(true);
  }
  // Live monitor + stall watchdog: a background sampler reading the
  // progress board the engine publishes each round. Purely
  // observational — the run's execution is bit-identical with or
  // without it.
  std::unique_ptr<telemetry::Monitor> monitor;
  if (spec.monitor_ms > 0 || spec.stall_timeout_ms > 0) {
    telemetry::MonitorOptions mopts;
    mopts.interval_ms = spec.monitor_ms > 0 ? static_cast<int>(spec.monitor_ms)
                                            : 1000;
    mopts.stall_timeout_ms = static_cast<int>(spec.stall_timeout_ms);
    mopts.abort_on_stall = spec.stall_abort;
    mopts.out = spec.monitor_ms > 0 ? &std::cerr : nullptr;
    mopts.label = spec.solver;
    monitor = std::make_unique<telemetry::Monitor>(mopts);
  }
  TelemetrySnap t_before;
  if (want_metrics) t_before = snap_telemetry();

  SolveResult result = solver.solve(inst, config);

  TelemetrySnap t_solve;
  if (want_metrics) t_solve = snap_telemetry();
  if (self_oracle) {
    out.optimum = objective(inst, result.matching, weighted_objective) *
                  oracle.bound_factor;
  }
  out.wall_ms = result.wall_ms;
  out.net = result.stats;
  out.converged = result.converged;
  out.metrics = std::move(result.metrics);
  out.guarantee = solver.guarantee(config);
  out.matching_size = result.matching.size();
  out.matching_weight = inst.has_weights()
                            ? result.matching.weight(inst.weighted_graph())
                            : 0.0;
  out.valid = is_valid_matching(inst.graph(),
                                result.matching.edge_ids(inst.graph()));
  out.maximal = !solver.capabilities().primitive &&
                is_maximal_matching(inst.graph(), result.matching);
  if (out.optimum > 0.0 && !solver.capabilities().primitive) {
    out.ratio =
        objective(inst, result.matching, weighted_objective) / out.optimum;
  }
  if (!spec.lca.empty()) {
    run_lca_leg(spec, inst, config, result.matching, pool.get(), out);
  }
  if (!spec.dynamic.empty()) {
    run_dynamic_leg(spec, fault_plan, *dyn_stream, *dyn_matcher, out);
  }
  if (want_metrics) {
    out.telemetry = summarize_telemetry(t_before, t_solve, snap_telemetry());
  }
  if (monitor != nullptr) {
    monitor->stop();
    out.stalled = monitor->stalled();
    monitor.reset();
  }
  telemetry::set_enabled(prev_metrics);
  if (want_trace) {
    tracer.set_recording(false);
    if (tracer.write_chrome_trace(spec.trace)) out.trace_path = spec.trace;
  }
  if (want_events) {
    elog.set_recording(false);
    out.events_recorded = elog.events();
    if (elog.write_jsonl(spec.events)) out.events_path = spec.events;
  }
  // Mirror ThreadPool's resolution of the 0 sentinel (hardware
  // concurrency, floored at 1 — the standard allows it to report 0).
  const unsigned resolved_threads =
      spec.threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                        : spec.threads;
  const Provenance prov = current_provenance(resolved_threads);
  out.prov_git_sha = prov.git_sha;
  out.prov_build_type = prov.build_type;
  out.prov_threads = prov.threads;
  out.prov_timestamp_utc = prov.timestamp_utc;
  // Cross-run memory: one best-effort JSONL record per run (spec.ledger
  // / LPS_LEDGER control the destination; see api/ledger.hpp).
  append_run_ledger(out, resolve_ledger_path(spec.ledger));
  return out;
}

std::string RunResult::to_json() const {
  JsonObject metrics_obj;
  for (const auto& [key, value] : metrics) metrics_obj.add(key, value);
  JsonObject tel;
  tel.add("enabled", telemetry.enabled);
  if (telemetry.enabled) {
    JsonArray worker_busy;
    for (const std::uint64_t w : telemetry.worker_busy_ns) worker_busy.push(w);
    JsonObject shards_obj;
    shards_obj.add("touched", telemetry.shards_touched)
        .add("busy_mean_ns", telemetry.shard_busy_mean_ns)
        .add("busy_max_ns", telemetry.shard_busy_max_ns)
        .add("hottest", telemetry.hottest_shard)
        .add("imbalance", telemetry.shard_imbalance);
    JsonArray mpr;
    for (const std::uint64_t v : telemetry.messages_per_round) mpr.push(v);
    tel.add("rounds", telemetry.rounds)
        .add("messages_delivered", telemetry.messages_delivered);
    // Empty-histogram contract: a run with no engine rounds (sequential
    // solvers, pure dynamic legs) has nothing in the round/phase
    // histograms — omit the blocks rather than emit p50/p90/p99 zeros
    // that read as measurements.
    if (telemetry.rounds > 0) {
      JsonObject round;
      round.add("mean_ns", telemetry.round_ns_mean)
          .add("p50_ns", telemetry.round_ns_p50)
          .add("p90_ns", telemetry.round_ns_p90)
          .add("p99_ns", telemetry.round_ns_p99)
          .add("max_ns", telemetry.round_ns_max);
      JsonObject phases;
      phases.add("exchange_p1_ns", telemetry.exchange_p1_ns_mean)
          .add("exchange_p2_ns", telemetry.exchange_p2_ns_mean)
          .add("inbox_sort_ns", telemetry.inbox_sort_ns_mean)
          .add("step_ns", telemetry.step_ns_mean);
      tel.add("round", round).add("phase_mean_per_round", phases);
    }
    tel.add("worker_busy_ns", worker_busy)
        .add("worker_stall_frac", telemetry.worker_stall_frac)
        .add("shard_exchange", shards_obj)
        .add("messages_per_round", mpr)
        .add("messages_per_round_stride", telemetry.messages_per_round_stride);
    if (telemetry.lca_query_ns_p50 > 0.0) {
      tel.add("lca_query_ns_p50", telemetry.lca_query_ns_p50)
          .add("lca_query_ns_p99", telemetry.lca_query_ns_p99);
    }
    if (telemetry.dynamic_update_ns_p50 > 0.0) {
      tel.add("dynamic_update_ns_p50", telemetry.dynamic_update_ns_p50)
          .add("dynamic_update_ns_p99", telemetry.dynamic_update_ns_p99);
    }
    if (telemetry.faults_recovery_ns_p50 > 0.0) {
      tel.add("faults_recovery_ns_p50", telemetry.faults_recovery_ns_p50)
          .add("faults_recovery_ns_p99", telemetry.faults_recovery_ns_p99);
    }
    if (!trace_path.empty()) tel.add("trace_path", trace_path);
    if (!events_path.empty()) {
      tel.add("events_path", events_path)
          .add("events_recorded", events_recorded);
    }
  }
  JsonObject o;
  o.add("solver", spec.solver)
      .add("generator", spec.generator)
      .add("config", spec.config)
      .add("instance_seed", spec.instance_seed)
      .add("solver_seed", spec.solver_seed)
      .add("threads", static_cast<std::uint64_t>(spec.threads))
      .add("shards", static_cast<std::uint64_t>(spec.shards))
      .add("oracle", spec.oracle)
      .add("feed_oracle", spec.feed_oracle)
      .add("n", static_cast<std::uint64_t>(n))
      .add("m", static_cast<std::uint64_t>(m))
      .add("max_degree", static_cast<std::uint64_t>(max_degree))
      .add("weighted", weighted)
      .add("wall_ms", wall_ms)
      .add("rounds", net.rounds)
      .add("messages", net.messages)
      .add("total_bits", net.total_bits)
      .add("max_message_bits", net.max_message_bits)
      .add("matching_size", static_cast<std::uint64_t>(matching_size))
      .add("matching_weight", matching_weight)
      .add("valid", valid)
      .add("maximal", maximal)
      .add("converged", converged)
      .add("stalled", stalled)
      .add("guarantee", guarantee)
      .add("oracle_solver", oracle_solver)
      .add("optimum_kind", optimum_kind)
      .add("optimum", optimum)
      .add("ratio", ratio);
  // Optional legs: their fields appear only when the leg ran — absent
  // beats defaults (dynamic_valid false, fault_min_ratio -1) that read
  // as outcomes.
  if (!lca_oracle.empty()) {
    o.add("lca_oracle", lca_oracle)
        .add("lca_queries", lca_queries)
        .add("lca_probes_per_query", lca_probes_per_query)
        .add("lca_queries_per_sec", lca_queries_per_sec)
        .add("lca_cache_hit_rate", lca_cache_hit_rate)
        .add("lca_agree", lca_agree);
  }
  if (!dynamic_maintainer.empty()) {
    o.add("dynamic_maintainer", dynamic_maintainer)
        .add("dynamic_stream", spec.dynamic_stream)
        .add("dynamic_bootstrap_updates", dynamic_bootstrap_updates)
        .add("dynamic_updates", dynamic_updates)
        .add("dynamic_updates_per_sec", dynamic_updates_per_sec)
        .add("dynamic_recourse_per_update", dynamic_recourse_per_update)
        .add("dynamic_final_size",
             static_cast<std::uint64_t>(dynamic_final_size))
        .add("dynamic_final_edges", dynamic_final_edges)
        .add("dynamic_ratio", dynamic_ratio)
        .add("dynamic_ratio_min", dynamic_ratio_min)
        .add("dynamic_baseline", dynamic_baseline)
        .add("dynamic_valid", dynamic_valid);
  }
  if (!fault_plan.empty()) {
    o.add("faults", spec.faults).add("fault_plan", fault_plan);
  }
  if (fault_epochs > 0) {  // the graph-fault session ran
    o.add("fault_epochs", fault_epochs)
        .add("fault_all_valid", fault_all_valid)
        .add("fault_min_ratio", fault_min_ratio)
        .add("fault_final_ratio", fault_final_ratio)
        .add("fault_final_valid", fault_final_valid)
        .add("fault_baseline_size",
             static_cast<std::uint64_t>(fault_baseline_size))
        .add("fault_crashed", fault_crashed)
        .add("fault_revived", fault_revived)
        .add("fault_adversarial", fault_adversarial)
        .add("fault_reinserted", fault_reinserted)
        .add("fault_recourse", fault_recourse)
        .add("fault_recovery_p50_ns", fault_recovery_p50_ns)
        .add("fault_recovery_p99_ns", fault_recovery_p99_ns);
  }
  o.add("provenance",
        provenance_json(Provenance{prov_git_sha, prov_build_type,
                                   prov_threads, prov_timestamp_utc}))
      .add("telemetry", tel)
      .add("metrics", metrics_obj);
  return o.str();
}

std::string write_json(const RunResult& result, const std::string& dir,
                       const std::string& name_hint) {
  std::string stem = name_hint;
  if (stem.empty()) {
    // Every spec field that changes the record is part of the stem, so
    // sweeps over any single knob never clobber each other's files.
    stem = result.spec.solver + "__" + result.spec.generator + "__s" +
           std::to_string(result.spec.instance_seed) + "-" +
           std::to_string(result.spec.solver_seed);
    if (!result.spec.config.empty()) stem += "__" + result.spec.config;
    if (result.spec.threads != 1) {
      stem += "__t" + std::to_string(result.spec.threads);
    }
    if (result.spec.shards != 0) {
      stem += "__s" + std::to_string(result.spec.shards);
    }
    if (result.spec.oracle != "auto") stem += "__o-" + result.spec.oracle;
    if (result.spec.feed_oracle) stem += "__fed";
    if (!result.spec.lca.empty()) {
      stem += "__lca-" + result.spec.lca + "-q" +
              std::to_string(result.spec.lca_queries);
    }
    if (!result.spec.dynamic.empty()) {
      stem += "__dyn-" + result.spec.dynamic + "-" + result.spec.dynamic_stream;
      if (!result.spec.dynamic_config.empty()) {
        stem += "-" + result.spec.dynamic_config;
      }
      stem += "-cp" + std::to_string(result.spec.dynamic_checkpoints);
    }
    if (!result.spec.faults.empty()) stem += "__f-" + result.spec.faults;
  }
  for (char& c : stem) {
    if (c == ':' || c == ',' || c == '=' || c == '/' || c == ' ') c = '-';
  }
  std::filesystem::create_directories(dir);
  // Repeated identical specs must not silently overwrite earlier
  // records: probe for a free path, suffixing a run ordinal.
  std::string path = dir + "/" + stem + ".json";
  for (unsigned ordinal = 2; std::filesystem::exists(path); ++ordinal) {
    path = dir + "/" + stem + "__r" + std::to_string(ordinal) + ".json";
  }
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("write_json: cannot open '" + path + "'");
  }
  os << result.to_json() << "\n";
  return path;
}

}  // namespace lps::api
