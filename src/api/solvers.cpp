// The adapter table: every src/core and src/seq algorithm wrapped as a
// MatchingSolver. Each adapter maps the algorithm's bespoke option
// struct onto the uniform SolverConfig key/value space and folds its
// bespoke result struct into SolveResult (matching + NetStats + named
// metrics). Config keys keep the option-struct field names so the
// mapping stays greppable.
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "core/beta_augment.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/class_mwm.hpp"
#include "core/general_mcm.hpp"
#include "core/generic_mcm.hpp"
#include "core/hoepman_mwm.hpp"
#include "core/israeli_itai.hpp"
#include "core/pipelined_max.hpp"
#include "core/weighted_mwm.hpp"
#include "lca/rank_greedy.hpp"
#include "seq/blossom.hpp"
#include "seq/exact_small.hpp"
#include "seq/greedy.hpp"
#include "seq/hopcroft_karp.hpp"
#include "seq/hungarian.hpp"

namespace lps::api {
namespace {

/// A solver assembled from plain data plus two lambdas; all built-in
/// adapters are instances of this.
class FunctionSolver final : public MatchingSolver {
 public:
  using RunFn = std::function<SolveResult(const Instance&, const SolverConfig&)>;
  using GuaranteeFn = std::function<double(const SolverConfig&)>;

  FunctionSolver(std::string name, std::string description, Capabilities caps,
                 std::vector<std::string> keys, GuaranteeFn guarantee,
                 RunFn run)
      : name_(std::move(name)),
        description_(std::move(description)),
        caps_(caps),
        keys_(std::move(keys)),
        guarantee_(std::move(guarantee)),
        run_(std::move(run)) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  Capabilities capabilities() const override { return caps_; }
  std::vector<std::string> config_keys() const override { return keys_; }
  double guarantee(const SolverConfig& config) const override {
    return guarantee_ ? guarantee_(config) : 0.0;
  }

 protected:
  SolveResult run(const Instance& instance,
                  const SolverConfig& config) const override {
    return run_(instance, config);
  }

 private:
  std::string name_;
  std::string description_;
  Capabilities caps_;
  std::vector<std::string> keys_;
  GuaranteeFn guarantee_;
  RunFn run_;
};

SolveResult make_result(Matching m, NetStats stats = {},
                        bool converged = true) {
  SolveResult out;
  out.matching = std::move(m);
  out.stats = stats;
  out.converged = converged;
  return out;
}

/// The instance's bipartition, required: attached side, else computed,
/// else an error naming the solver.
std::vector<std::uint8_t> require_side(const Instance& instance,
                                       const char* solver) {
  auto side = instance.bipartition();
  if (!side.has_value()) {
    throw std::invalid_argument(std::string("solver '") + solver +
                                "' requires a bipartite instance");
  }
  return std::move(*side);
}

/// k bounds the augmenting-path length 2k-1, which must fit in an int.
constexpr std::uint64_t kMaxK = std::numeric_limits<int>::max() / 2;
/// general_mcm's paper budget 2^{2k+1}(k+1) ln k must fit in 64 bits.
constexpr std::uint64_t kMaxGeneralMcmK = 28;

int config_k(const SolverConfig& c, std::uint64_t max_k = kMaxK) {
  const int k = static_cast<int>(c.args().get_count("k", 3, max_k));
  if (k < 1) throw std::invalid_argument("config: k must be >= 1");
  return k;
}

/// local_mwm's ball radius 2(2 beta + 1) must fit in an int.
int config_beta(const SolverConfig& c) {
  const int beta = static_cast<int>(c.args().get_count(
      "beta", 3, (std::numeric_limits<int>::max() - 2) / 4));
  if (beta < 1) throw std::invalid_argument("config: beta must be >= 1");
  return beta;
}

/// generic_mcm documents eps in (0, 1] (eps = 1 -> k = 1); the other
/// eps consumers require (0, 1) strictly.
double config_eps(const SolverConfig& c, double fallback,
                  bool inclusive_one = false) {
  const double eps = c.args().get_double("eps", fallback);
  if (eps <= 0.0 || eps > 1.0 || (!inclusive_one && eps == 1.0)) {
    throw std::invalid_argument(std::string("config: eps must be in (0, 1") +
                                (inclusive_one ? "]" : ")"));
  }
  return eps;
}

/// An integer key that defaults to 0 (every cap documents 0 as "use
/// the default budget").
std::uint64_t config_count(const SolverConfig& c, const char* key) {
  return c.args().get_count(key, 0, UINT64_MAX);
}

/// True when the config sets a truncating cap to a nonzero value: the
/// run may stop short of the analysis' budget, so the solver's
/// approximation guarantee no longer applies and guarantee() must
/// report 0. Every cap documents 0 as "use the default budget", which
/// does not truncate.
bool truncated(const SolverConfig& c,
               std::initializer_list<const char*> cap_keys) {
  for (const char* key : cap_keys) {
    if (config_count(c, key) != 0) return true;
  }
  return false;
}

void add(SolverRegistry& reg, std::string name, std::string description,
         Capabilities caps, std::vector<std::string> keys,
         FunctionSolver::GuaranteeFn guarantee, FunctionSolver::RunFn run) {
  reg.add(std::make_shared<FunctionSolver>(
      std::move(name), std::move(description), caps, std::move(keys),
      std::move(guarantee), std::move(run)));
}

// ------------------------------------------------- core (distributed) --

void register_core(SolverRegistry& reg) {
  add(reg, "israeli_itai",
      "Randomized distributed maximal matching (1/2-MCM baseline, "
      "O(log n) rounds w.h.p.) [Israeli & Itai 1986]",
      {.bipartite = true, .general = true, .distributed = true,
       .maximal = true},
      {"max_phases", "faults"},
      [](const SolverConfig& c) {
        // Under injected faults maximality is best-effort (resync may
        // exhaust its budget), so the 1/2 guarantee no longer applies.
        if (!c.args().get("faults", "").empty()) return 0.0;
        return truncated(c, {"max_phases"}) ? 0.0 : 0.5;
      },
      [](const Instance& inst, const SolverConfig& cfg) {
        IsraeliItaiOptions o;
        o.seed = cfg.seed();
        const Args args = cfg.args();
        o.max_phases = args.get_count("max_phases", 0, kIsraeliItaiMaxPhases);
        o.exec = cfg.exec();
        o.faults = args.get("faults", "");
        auto res = israeli_itai(inst.graph(), o);
        SolveResult out =
            make_result(std::move(res.matching), res.stats, res.converged);
        out.metrics["resyncs"] = static_cast<double>(res.resyncs);
        return out;
      });

  add(reg, "generic_mcm",
      "Algorithm 1 (Theorem 3.1): generic (1-eps)-MCM in the LOCAL "
      "model, O(eps^-3 log n) rounds w.h.p.",
      {.bipartite = true, .general = true, .distributed = true},
      {"eps", "max_conflict_nodes", "use_abi_mis", "check_invariants"},
      [](const SolverConfig& c) {
        const double eps = config_eps(c, 0.34, /*inclusive_one=*/true);
        const int k = static_cast<int>(std::ceil(1.0 / eps));
        return 1.0 - 1.0 / (k + 1);
      },
      [](const Instance& inst, const SolverConfig& cfg) {
        GenericMcmOptions o;
        o.eps = config_eps(cfg, 0.34, /*inclusive_one=*/true);
        o.seed = cfg.seed();
        const Args args = cfg.args();
        o.max_conflict_nodes =
            args.get_count("max_conflict_nodes", 4 << 20, UINT64_MAX);
        o.use_abi_mis = args.get_bool("use_abi_mis", false);
        o.check_invariants = args.get_bool("check_invariants", false);
        o.exec = cfg.exec();
        auto res = generic_mcm(inst.graph(), o);
        SolveResult out = make_result(std::move(res.matching), res.stats);
        out.metrics["phases"] = static_cast<double>(res.phases.size());
        std::size_t selected = 0;
        for (const auto& ph : res.phases) selected += ph.selected_paths;
        out.metrics["selected_paths"] = static_cast<double>(selected);
        return out;
      });

  add(reg, "bipartite_mcm",
      "Section 3.2 CONGEST engine (Theorem 3.8): (1-1/(k+1))-MCM for "
      "bipartite graphs with O(log Delta)-bit messages",
      {.bipartite = true, .distributed = true},
      {"k", "max_iterations_per_phase"},
      [](const SolverConfig& c) {
        if (truncated(c, {"max_iterations_per_phase"})) return 0.0;
        return 1.0 - 1.0 / (config_k(c) + 1);
      },
      [](const Instance& inst, const SolverConfig& cfg) {
        const auto side = require_side(inst, "bipartite_mcm");
        BipartiteMcmOptions o;
        o.k = config_k(cfg);
        o.seed = cfg.seed();
        o.max_iterations_per_phase =
            config_count(cfg, "max_iterations_per_phase");
        o.exec = cfg.exec();
        auto res = bipartite_mcm(inst.graph(), side, o);
        SolveResult out =
            make_result(std::move(res.matching), res.stats, res.converged);
        out.metrics["phases"] = static_cast<double>(res.phases.size());
        std::uint64_t iters = 0;
        std::size_t paths = 0;
        for (const auto& ph : res.phases) {
          iters += ph.iterations;
          paths += ph.paths_applied;
        }
        out.metrics["aug_iterations"] = static_cast<double>(iters);
        out.metrics["paths_applied"] = static_cast<double>(paths);
        return out;
      });

  add(reg, "general_mcm",
      "Algorithm 4 (Theorem 3.11): (1-1/k)-MCM for general graphs via "
      "repeated random bipartition",
      {.bipartite = true, .general = true, .distributed = true},
      {"k", "mode", "max_iterations", "empty_streak_stop",
       "oracle_optimum_size", "max_aug_iterations"},
      // empty_streak_stop is not listed: it tunes the adaptive
      // heuristic (default 2^{2k+1}) rather than capping the paper
      // budget, so it leaves the stated guarantee unchanged.
      [](const SolverConfig& c) {
        if (truncated(c, {"max_iterations", "max_aug_iterations"})) {
          return 0.0;
        }
        return 1.0 - 1.0 / config_k(c, kMaxGeneralMcmK);
      },
      [](const Instance& inst, const SolverConfig& cfg) {
        GeneralMcmOptions o;
        o.k = config_k(cfg, kMaxGeneralMcmK);
        o.seed = cfg.seed();
        const std::string mode = cfg.args().get("mode", "adaptive");
        if (mode == "paper") {
          o.mode = GeneralMcmOptions::Mode::kPaper;
        } else if (mode == "adaptive") {
          o.mode = GeneralMcmOptions::Mode::kAdaptive;
        } else {
          throw std::invalid_argument(
              "general_mcm: mode must be 'paper' or 'adaptive'");
        }
        o.max_iterations = config_count(cfg, "max_iterations");
        o.empty_streak_stop = config_count(cfg, "empty_streak_stop");
        o.oracle_optimum_size = config_count(cfg, "oracle_optimum_size");
        o.max_aug_iterations = config_count(cfg, "max_aug_iterations");
        o.exec = cfg.exec();
        auto res = general_mcm(inst.graph(), o);
        // Converged = the adaptive exit fired or the full analysis
        // budget ran; an explicit max_iterations below the paper
        // budget is a truncated run.
        SolveResult out = make_result(
            std::move(res.matching), res.stats,
            res.stopped_early || res.iterations >= res.paper_budget);
        out.metrics["iterations"] = static_cast<double>(res.iterations);
        out.metrics["paper_budget"] = static_cast<double>(res.paper_budget);
        out.metrics["paths_applied"] = static_cast<double>(res.paths_applied);
        out.metrics["stopped_early"] = res.stopped_early ? 1.0 : 0.0;
        return out;
      });

  add(reg, "hoepman_mwm",
      "Hoepman's deterministic distributed 1/2-MWM (Theta(n) rounds; "
      "reference [11])",
      {.bipartite = true, .general = true, .weighted = true,
       .distributed = true},
      {"max_rounds"},
      [](const SolverConfig& c) {
        return truncated(c, {"max_rounds"}) ? 0.0 : 0.5;
      },
      [](const Instance& inst, const SolverConfig& cfg) {
        HoepmanOptions o;
        o.max_rounds = config_count(cfg, "max_rounds");
        o.exec = cfg.exec();
        auto res = hoepman_mwm(inst.weighted_graph(), o);
        return make_result(std::move(res.matching), res.stats, res.converged);
      });

  add(reg, "class_mwm",
      "Geometric weight classes + per-class Israeli-Itai + survival "
      "sweep: the constant-delta MWM black box standing in for [18] "
      "(DESIGN.md sec. 4)",
      {.bipartite = true, .general = true, .weighted = true,
       .distributed = true},
      {"class_base", "max_phases_per_class"},
      [](const SolverConfig&) { return 0.0; },
      [](const Instance& inst, const SolverConfig& cfg) {
        ClassMwmOptions o;
        o.seed = cfg.seed();
        o.class_base = cfg.args().get_double("class_base", 2.0);
        o.max_phases_per_class = config_count(cfg, "max_phases_per_class");
        o.exec = cfg.exec();
        auto res = class_mwm(inst.weighted_graph(), o);
        SolveResult out =
            make_result(std::move(res.matching), res.stats, res.converged);
        out.metrics["num_classes"] = static_cast<double>(res.num_classes);
        return out;
      });

  add(reg, "weighted_mwm",
      "Algorithm 5 (Theorem 4.5): (1/2-eps)-MWM by reduction to a "
      "delta-MWM black box",
      {.bipartite = true, .general = true, .weighted = true,
       .distributed = true},
      {"eps", "delta", "black_box", "max_iterations"},
      // eps >= 1/2 still runs but states no guarantee (0 by contract).
      [](const SolverConfig& c) {
        if (truncated(c, {"max_iterations"})) return 0.0;
        return std::max(0.0, 0.5 - config_eps(c, 0.1));
      },
      [](const Instance& inst, const SolverConfig& cfg) {
        WeightedMwmOptions o;
        o.eps = config_eps(cfg, 0.1);
        const Args args = cfg.args();
        o.delta = args.get_double("delta", 0.2);
        o.seed = cfg.seed();
        // "class" leaves black_box empty: weighted_mwm's default.
        const std::string box = args.get("black_box", "class");
        if (box == "greedy") {
          o.black_box = greedy_black_box();
        } else if (box != "class") {
          throw std::invalid_argument(
              "weighted_mwm: black_box must be 'class' or 'greedy'");
        }
        o.max_iterations = config_count(cfg, "max_iterations");
        o.exec = cfg.exec();
        auto res = weighted_mwm(inst.weighted_graph(), o);
        // Lemma 4.3's iteration budget; an explicit cap below it makes
        // the run truncated, not converged.
        const std::uint64_t budget =
            weighted_mwm_iteration_budget(o.delta, o.eps);
        SolveResult out = make_result(
            std::move(res.matching), res.stats,
            res.converged_early || res.iterations >= budget);
        out.metrics["iterations"] = static_cast<double>(res.iterations);
        out.metrics["converged_early"] = res.converged_early ? 1.0 : 0.0;
        if (!res.weight_trajectory.empty()) {
          out.metrics["first_iteration_weight"] = res.weight_trajectory.front();
        }
        return out;
      });

  add(reg, "local_mwm",
      "Section 4 Remark: (1-eps)-MWM by beta-augmentation local search "
      "over Algorithm 2's radius-2L balls, beta/(beta+1) at the fixed "
      "point, linear-size messages [Hougardy & Vinkemeier adaptation]",
      {.bipartite = true, .general = true, .weighted = true,
       .distributed = true},
      {"beta"},
      // The phase and enumeration caps are not exposed, so no config
      // truncates the run; an unconverged run reports converged=false.
      [](const SolverConfig& c) {
        const double beta = static_cast<double>(config_beta(c));
        return beta / (beta + 1.0);
      },
      [](const Instance& inst, const SolverConfig& cfg) {
        LocalMwmOptions o;
        o.beta = config_beta(cfg);
        o.exec = cfg.exec();
        auto res = local_mwm(inst.weighted_graph(), o);
        SolveResult out =
            make_result(std::move(res.matching), res.stats, res.converged);
        out.metrics["phases"] = static_cast<double>(res.phases);
        return out;
      });

  add(reg, "pipelined_max",
      "Lemma 3.7 bit-pipelined maximum over a tree (primitive, not a "
      "matching: per-node values are the degrees; result in metrics)",
      {.bipartite = true, .general = true, .distributed = true,
       .primitive = true},
      {"chunk_bits", "root"}, [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig& cfg) {
        const Graph& g = inst.graph();
        const Args args = cfg.args();
        const int chunk_bits =
            static_cast<int>(args.get_count("chunk_bits", 8, 32));
        if (g.num_nodes() == 0) {
          throw std::invalid_argument("pipelined_max: empty graph, no root");
        }
        const NodeId root = static_cast<NodeId>(
            args.get_count("root", 0, g.num_nodes() - 1));
        std::vector<std::optional<BigCounter>> values(g.num_nodes());
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          values[v] = BigCounter(g.degree(v));
        }
        auto res = pipelined_max(g, root, values, chunk_bits, cfg.exec());
        SolveResult out = make_result(Matching(g.num_nodes()), res.stats);
        out.metrics["maximum"] = res.maximum.to_double();
        out.metrics["tree_depth"] = static_cast<double>(res.tree_depth);
        out.metrics["chunk_count"] = static_cast<double>(res.chunk_count);
        return out;
      });
}

// ------------------------------------------------- seq (baselines) --

void register_seq(SolverRegistry& reg) {
  add(reg, "greedy_mcm",
      "Sequential maximal matching by edge-id scan (1/2-MCM)",
      {.bipartite = true, .general = true, .maximal = true}, {},
      [](const SolverConfig&) { return 0.5; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(greedy_mcm(inst.graph()));
      });

  add(reg, "rank_greedy_mcm",
      "Greedy maximal matching over a seed-derived random edge order "
      "(1/2-MCM): the virtual global execution behind the src/lca "
      "rank-greedy query oracle [Nguyen-Onak style]",
      {.bipartite = true, .general = true, .maximal = true}, {},
      [](const SolverConfig&) { return 0.5; },
      [](const Instance& inst, const SolverConfig& cfg) {
        return make_result(
            lca::rank_greedy_matching(inst.graph(), cfg.seed()));
      });

  add(reg, "greedy_mwm",
      "Sequential greedy by descending weight (classical 1/2-MWM)",
      {.bipartite = true, .general = true, .weighted = true,
       .maximal = true},
      {}, [](const SolverConfig&) { return 0.5; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(greedy_mwm(inst.weighted_graph()));
      });

  add(reg, "locally_heaviest_mwm",
      "Preis-style locally-heaviest-edge 1/2-MWM",
      {.bipartite = true, .general = true, .weighted = true,
       .maximal = true},
      {}, [](const SolverConfig&) { return 0.5; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(locally_heaviest_mwm(inst.weighted_graph()));
      });

  add(reg, "hopcroft_karp",
      "Exact maximum-cardinality matching for bipartite graphs, "
      "O(E sqrt(V)) [13]",
      {.bipartite = true, .exact = true, .maximal = true}, {},
      [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig&) {
        const auto side = require_side(inst, "hopcroft_karp");
        return make_result(hopcroft_karp(inst.graph(), side));
      });

  add(reg, "blossom",
      "Edmonds' blossom algorithm: exact MCM for general graphs, O(V^3)",
      {.bipartite = true, .general = true, .exact = true, .maximal = true},
      {}, [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(blossom_mcm(inst.graph()));
      });

  add(reg, "hungarian",
      "Hungarian algorithm: exact maximum-weight matching for bipartite "
      "graphs, O(n^3)",
      {.bipartite = true, .weighted = true, .exact = true}, {},
      [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig&) {
        const auto side = require_side(inst, "hungarian");
        return make_result(hungarian_mwm(inst.weighted_graph(), side));
      });

  add(reg, "exact_mcm_small",
      "Exhaustive exact MCM over vertex subsets (n <= 30)",
      {.bipartite = true, .general = true, .exact = true, .maximal = true},
      {}, [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(exact_mcm_small(inst.graph()));
      });

  add(reg, "exact_mwm_small",
      "Exhaustive exact MWM over vertex subsets (n <= 30)",
      {.bipartite = true, .general = true, .weighted = true, .exact = true},
      {}, [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(exact_mwm_small(inst.weighted_graph()));
      });
}

}  // namespace

void register_builtin_solvers(SolverRegistry& registry) {
  register_core(registry);
  register_seq(registry);
}

}  // namespace lps::api
