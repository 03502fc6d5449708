// End-to-end, layer-attributed benchmark of certified solves.
//
// One process runs one workload. It builds the instance, solves it back
// to back for --seconds (a closed loop: one client, next solve after the
// previous one returns), checks every result, and prints each metric by
// name with its unit. The last stdout line is the machine-readable
// result:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 keeps telemetry off and reports the end-to-end metrics.
// --trace 1 alternates untraced and traced solves and reports the
// per-layer metrics; the benchmark's own spans go through the public
// telemetry::Tracer around each layer call. perfbench/README.md lists
// what each metric means and which end-to-end metric it should move.
//
// The benchmark composes the public calls api::run_one composes and
// times each from outside: make_instance, Instance::bipartition, a bare
// SyncNetwork construction, the registry solve, is_valid_matching,
// is_maximal_matching and the oracle's solve. It does not call run_one
// on the measured path, because run_one bundles oracle, solve and checks
// into one call; a smoke-size cross-check proves both paths agree.
//
// Exit codes: 0 = result printed and every check passed, 1 = a check
// failed (result still printed), 2 = usage or setup error (no result).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/json.hpp"
#include "api/provenance.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "graph/matching.hpp"
#include "runtime/engine.hpp"
#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_reader.hpp"

namespace {

using lps::Matching;
using lps::NetStats;
using lps::ThreadPool;
using lps::api::Instance;
using lps::api::JsonObject;
using lps::api::MatchingSolver;
using lps::api::SolveResult;
using lps::api::SolverConfig;
using lps::api::SolverRegistry;
namespace telemetry = lps::telemetry;

struct Workload {
  const char* name;
  const char* generator;        // measured size
  const char* smoke_generator;  // path cross-check size
  const char* solver;
  /// What run_one's oracle="auto" resolves to at both sizes; the
  /// cross-check confirms it.
  const char* oracle;
  unsigned threads;
};

constexpr Workload kWorkloads[] = {
    {"ii-er20", "er:n=1048576,deg=4", "er:n=16384,deg=4", "israeli_itai",
     "greedy_mcm", 2},
    {"bmcm-bip17", "bipartite:nx=65536,ny=65536,deg=4",
     "bipartite:nx=4096,ny=4096,deg=4", "bipartite_mcm", "hopcroft_karp", 2},
    {"wmwm-er16w", "er:n=65536,deg=8,w=uniform,wlo=1,whi=100",
     "er:n=4096,deg=8,w=uniform,wlo=1,whi=100", "weighted_mwm", "greedy_mwm",
     2},
};

// Instance builds (setup_s is their median) are spread over the whole
// closed loop, kSetupShare of its time, so they see the same host noise
// as the solves; at least kMinSetupReps per run.
constexpr double kSetupShare = 0.1;
constexpr std::size_t kMinSetupReps = 5;
constexpr int kNetSetupReps = 3;  // bare engine constructions (median)
constexpr int kMinSolveReps = 3;  // timed solves, even past --seconds

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "perfbench_solve: " << why << "\n"
            << "usage: perfbench_solve --workload NAME --seed N --seconds S "
               "--trace 0|1\n  workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = true;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        a.trace = value == "1";
      } else {
        usage_error("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + key + ": " + value);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds) {
    usage_error("--workload, --seed and --seconds are required");
  }
  if (!(a.seconds > 0.0) || a.seconds > 600.0) {
    usage_error("--seconds must be in (0, 600]");
  }
  return a;
}

/// splitmix64: derives the instance and solver seeds from --seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

struct Usage {
  double cpu_s = 0.0;  // user + system, all threads
  long minflt = 0;
  long majflt = 0;
  long nvcsw = 0;
  long nivcsw = 0;
  long maxrss_kb = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return {tv(ru.ru_utime) + tv(ru.ru_stime), ru.ru_minflt, ru.ru_majflt,
          ru.ru_nvcsw,  ru.ru_nivcsw, ru.ru_maxrss};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// ------------------------------------------------------ engine counters --

/// A copy of the engine's MetricsRegistry instruments; two snapshots
/// around a solve give that solve's engine-side numbers.
struct EngineSnap {
  std::uint64_t rounds = 0;
  std::uint64_t delivered = 0;
  telemetry::HistogramSnapshot round_ns;
  telemetry::HistogramSnapshot p1_ns;
  telemetry::HistogramSnapshot p2_ns;
  telemetry::HistogramSnapshot sort_ns;
  telemetry::HistogramSnapshot step_ns;
  std::vector<std::uint64_t> worker_ns;
  std::vector<std::uint64_t> shard_ns;
};

EngineSnap snap_engine() {
  telemetry::EngineMetrics& em = telemetry::EngineMetrics::get();
  return {em.rounds.value(),          em.messages_delivered.value(),
          em.round_ns.snapshot(),     em.exchange_p1_ns.snapshot(),
          em.exchange_p2_ns.snapshot(), em.inbox_sort_ns.snapshot(),
          em.step_ns.snapshot(),      em.worker_busy_ns.values(),
          em.shard_exchange_ns.values()};
}

std::vector<std::uint64_t> minus(std::vector<std::uint64_t> after,
                                 const std::vector<std::uint64_t>& before) {
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    after[i] -= before[i];
  }
  return after;
}

/// One solve's engine-side numbers (the deltas of two EngineSnaps).
/// Phase sums are in seconds; exchange p2 and inbox sort are summed over
/// shards, which run in parallel, so they are CPU time, not wall.
struct EngineDelta {
  std::uint64_t rounds = 0;
  std::uint64_t delivered = 0;
  double round_s = 0.0;
  double p1_s = 0.0;
  double p2_s = 0.0;
  double sort_s = 0.0;
  double step_s = 0.0;
  double round_p50_us = 0.0;
  double round_p99_us = 0.0;
  double worker_stall_frac = 0.0;
  double shard_imbalance = 0.0;
};

EngineDelta engine_delta(const EngineSnap& b, const EngineSnap& a) {
  EngineDelta d;
  d.rounds = a.rounds - b.rounds;
  d.delivered = a.delivered - b.delivered;
  const auto hist = [](telemetry::HistogramSnapshot h,
                       const telemetry::HistogramSnapshot& before) {
    h -= before;
    return h;
  };
  const telemetry::HistogramSnapshot round = hist(a.round_ns, b.round_ns);
  const telemetry::HistogramSnapshot step = hist(a.step_ns, b.step_ns);
  d.round_s = static_cast<double>(round.sum) * 1e-9;
  d.p1_s = static_cast<double>(hist(a.p1_ns, b.p1_ns).sum) * 1e-9;
  d.p2_s = static_cast<double>(hist(a.p2_ns, b.p2_ns).sum) * 1e-9;
  d.sort_s = static_cast<double>(hist(a.sort_ns, b.sort_ns).sum) * 1e-9;
  d.step_s = static_cast<double>(step.sum) * 1e-9;
  d.round_p50_us = round.percentile(50) * 1e-3;
  d.round_p99_us = round.percentile(99) * 1e-3;
  // Same definitions as the run_one telemetry digest.
  const std::vector<std::uint64_t> workers = minus(a.worker_ns, b.worker_ns);
  if (workers.size() > 1 && step.sum > 0) {
    std::uint64_t busy = 0;
    for (std::uint64_t w : workers) busy += w;
    const double span =
        static_cast<double>(step.sum) * static_cast<double>(workers.size());
    d.worker_stall_frac =
        std::clamp(1.0 - static_cast<double>(busy) / span, 0.0, 1.0);
  }
  const std::vector<std::uint64_t> shards = minus(a.shard_ns, b.shard_ns);
  std::uint64_t sum = 0;
  std::uint64_t mx = 0;
  std::uint64_t touched = 0;
  for (std::uint64_t s : shards) {
    if (s == 0) continue;
    ++touched;
    sum += s;
    mx = std::max(mx, s);
  }
  if (touched > 0) {
    d.shard_imbalance = static_cast<double>(mx) * static_cast<double>(touched) /
                        static_cast<double>(sum);
  }
  return d;
}

// ------------------------------------------------------------- tracing --

/// Emits the benchmark's own span around one layer call when the tracer
/// records; a no-op otherwise.
void span(const char* name, const char* layer, std::uint64_t t0_ns,
          std::uint64_t t1_ns) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  if (tracer.recording()) tracer.emit(name, layer, t0_ns, t1_ns - t0_ns);
}

/// Share of the (single) "bench.solve" span covered by the union of the
/// program's engine spans. Reads the tracer's own Chrome-trace export.
double trace_coverage() {
  std::ostringstream os;
  telemetry::Tracer::global().write_chrome_trace(os);
  telemetry::TraceDoc doc;
  std::string error;
  if (!telemetry::load_chrome_trace(os.str(), doc, &error)) {
    throw std::runtime_error("trace export did not parse: " + error);
  }
  double s0 = 0.0;
  double s1 = -1.0;
  std::vector<std::pair<double, double>> spans;
  for (const telemetry::TraceSpan& s : doc.spans) {
    if (s.ph != 'X') continue;
    if (s.name == "bench.solve") {
      s0 = s.ts_us;
      s1 = s.ts_us + s.dur_us;
    } else if (s.cat == "engine") {
      spans.emplace_back(s.ts_us, s.ts_us + s.dur_us);
    }
  }
  if (!(s1 > s0)) throw std::runtime_error("trace lost the bench.solve span");
  std::sort(spans.begin(), spans.end());
  double covered = 0.0;
  double reach = s0;
  for (auto [b, e] : spans) {
    b = std::max(b, reach);
    e = std::min(e, s1);
    if (e > b) {
      covered += e - b;
      reach = e;
    }
  }
  return covered / (s1 - s0);
}

// ------------------------------------------------------------- checking --

struct OracleInfo {
  const MatchingSolver* solver = nullptr;
  bool exact = false;
  double bound_factor = 1.0;  // oracle objective -> certified bound on OPT
};

/// The oracle as run_one's "auto" resolution treats it: exact solvers
/// give OPT, a g-approximation certifies OPT <= objective / g.
OracleInfo make_oracle(const std::string& name) {
  OracleInfo o;
  o.solver = &SolverRegistry::global().at(name);
  o.exact = o.solver->capabilities().exact;
  if (!o.exact) o.bound_factor = 1.0 / o.solver->guarantee(SolverConfig());
  return o;
}

double objective(const Instance& inst, const Matching& m, bool weighted) {
  return weighted ? m.weight(inst.weighted_graph())
                  : static_cast<double>(m.size());
}

bool same_stats(const NetStats& a, const NetStats& b) {
  return a.rounds == b.rounds && a.messages == b.messages &&
         a.total_bits == b.total_bits &&
         a.max_message_bits == b.max_message_bits;
}

/// Builds the instance the way run_one does: make_instance, then attach
/// the bipartition when the generator did not. Returns the two layer
/// times through the out-parameters.
Instance build_instance(const std::string& spec, std::uint64_t seed,
                        double& make_s, double& bip_s) {
  const std::uint64_t t0 = telemetry::now_ns();
  Instance inst = lps::api::make_instance(spec, seed);
  const std::uint64_t t1 = telemetry::now_ns();
  const bool had_side = inst.side().has_value();
  std::optional<std::vector<std::uint8_t>> side = inst.bipartition();
  if (!had_side && side.has_value()) inst.with_side(std::move(*side));
  const std::uint64_t t2 = telemetry::now_ns();
  span("bench.make_instance", "graph", t0, t1);
  span("bench.bipartition", "graph", t1, t2);
  make_s = seconds_between(t0, t1);
  bip_s = seconds_between(t1, t2);
  return inst;
}

/// Proves the measured path is the path a user runs: on the smoke-size
/// instance, the benchmark's own composition and api::run_one must give
/// the same matching size, message count, round count and ratio.
bool cross_check(const Workload& w, std::uint64_t iseed, std::uint64_t sseed) {
  const MatchingSolver& solver = SolverRegistry::global().at(w.solver);
  double make_s = 0.0;
  double bip_s = 0.0;
  const Instance inst = build_instance(w.smoke_generator, iseed, make_s, bip_s);
  ThreadPool pool(w.threads);
  SolverConfig config;
  config.seed(sseed).shards(0).pool(&pool);
  telemetry::set_enabled(true);
  const EngineSnap before = snap_engine();
  const SolveResult res = solver.solve(inst, config);
  const EngineDelta eng = engine_delta(before, snap_engine());
  telemetry::set_enabled(false);
  const bool weighted = solver.capabilities().weighted && inst.has_weights();
  const OracleInfo oracle = make_oracle(w.oracle);
  SolverConfig oconfig;
  oconfig.seed(sseed);
  const double optimum =
      objective(inst, oracle.solver->solve(inst, oconfig).matching, weighted) *
      oracle.bound_factor;
  const double ratio = objective(inst, res.matching, weighted) / optimum;

  lps::api::RunSpec spec;
  spec.generator = w.smoke_generator;
  spec.solver = w.solver;
  spec.instance_seed = iseed;
  spec.solver_seed = sseed;
  spec.threads = w.threads;
  spec.shards = 0;
  spec.ledger = "off";
  const lps::api::RunResult ref = lps::api::run_one(spec);

  const bool ok = ref.matching_size == res.matching.size() &&
                  ref.telemetry.messages_delivered == eng.delivered &&
                  ref.telemetry.rounds == eng.rounds &&
                  same_stats(ref.net, res.stats) &&
                  ref.oracle_solver == w.oracle &&
                  std::abs(ref.ratio - ratio) <= 1e-12 * std::abs(ratio);
  std::cout << "cross_check " << (ok ? "ok" : "MISMATCH")
            << ": matching " << res.matching.size() << " vs run_one "
            << ref.matching_size << ", runtime.messages " << eng.delivered
            << " vs " << ref.telemetry.messages_delivered
            << ", core.paper_rounds " << res.stats.rounds << " vs "
            << ref.net.rounds << ", oracle " << w.oracle << " vs "
            << ref.oracle_solver << ", ratio " << ratio << " vs " << ref.ratio
            << '\n';
  return ok;
}

// -------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::cout << "  " << m.name;
    for (std::size_t i = m.name.size(); i < 30; ++i) std::cout << ' ';
    std::cout << m.value << ' ' << m.unit << '\n';
  }
}

JsonObject metrics_json(const std::vector<Metric>& ms) {
  JsonObject out;
  for (const Metric& m : ms) {
    out.add(m.name, JsonObject().add("value", m.value).add("unit", m.unit));
  }
  return out;
}

/// Solver-reported augmentation counters; 0 when the solver has none.
double solver_metric(const SolveResult& r, const char* key) {
  const auto it = r.metrics.find(key);
  return it == r.metrics.end() ? 0.0 : it->second;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) usage_error("unknown workload '" + args.workload + "'");
  const Workload& w = *found;
  const std::uint64_t iseed = mix(args.seed ^ 0x1b57a9c3ull);
  const std::uint64_t sseed = mix(args.seed ^ 0x5e1f0d77ull);
  const MatchingSolver& solver = SolverRegistry::global().at(w.solver);
  telemetry::set_enabled(false);
  telemetry::Tracer& tracer = telemetry::Tracer::global();

  // Host and noise context, so a reader can tell a regression from a
  // noisy neighbour.
  const lps::CacheInfo& cache = lps::detect_cache();
  const lps::api::Provenance prov = lps::api::current_provenance(w.threads);
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  std::cout << "workload " << w.name << ": " << w.solver << " on "
            << w.generator << ", threads " << w.threads
            << ", shards auto, seed " << args.seed << ", trace "
            << (args.trace ? 1 : 0) << '\n';

  const bool path_ok = cross_check(w, iseed, sseed);

  // Set-up: instance build + bipartition. The first build is the solved
  // instance; setup_rep() builds identical throwaway copies for timing.
  std::vector<double> setup_s;
  std::vector<double> make_s;
  std::vector<double> bip_s;
  double setup_total = 0.0;
  const auto record_setup = [&](double m, double b) {
    make_s.push_back(m);
    bip_s.push_back(b);
    setup_s.push_back(m + b);
    setup_total += m + b;
  };
  const auto setup_rep = [&] {
    double m = 0.0;
    double b = 0.0;
    build_instance(w.generator, iseed, m, b);
    record_setup(m, b);
  };
  if (args.trace) {
    tracer.reset();
    tracer.set_recording(true);
  }
  double first_make_s = 0.0;
  double first_bip_s = 0.0;
  const Instance inst =
      build_instance(w.generator, iseed, first_make_s, first_bip_s);
  record_setup(first_make_s, first_bip_s);
  const lps::Graph& g = inst.graph();
  const lps::GraphStore& store = g.store();
  const double csr_bytes = static_cast<double>(
      store.offsets.size() * sizeof(store.offsets[0]) +
      store.adj_to.size() * sizeof(store.adj_to[0]) +
      store.adj_edge.size() * sizeof(store.adj_edge[0]) +
      store.edge_u.size() * sizeof(store.edge_u[0]) +
      store.edge_v.size() * sizeof(store.edge_v[0]) +
      store.edge_weight.size() * sizeof(store.edge_weight[0]));

  // A bare engine construction on the instance graph: the per-network
  // set-up cost every engine-backed solve pays (trace run only).
  std::vector<double> net_setup_s;
  if (args.trace) {
    for (int r = 0; r < kNetSetupReps; ++r) {
      const std::uint64_t t0 = telemetry::now_ns();
      { lps::SyncNetwork<std::uint8_t> net(g, sseed); }
      const std::uint64_t t1 = telemetry::now_ns();
      span("bench.net_setup", "runtime", t0, t1);
      net_setup_s.push_back(seconds_between(t0, t1));
    }
    tracer.set_recording(false);
  }

  ThreadPool pool(w.threads);
  SolverConfig config;
  config.seed(sseed).shards(0).pool(&pool);
  const bool weighted = solver.capabilities().weighted && inst.has_weights();
  const bool claims_maximal = solver.capabilities().maximal;
  const double guarantee = solver.guarantee(config);
  const OracleInfo oracle = make_oracle(w.oracle);
  SolverConfig oconfig;
  oconfig.seed(sseed);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t invalid = 0;
  double optimum = -1.0;
  std::optional<SolveResult> reference;
  std::vector<double> check_s;
  std::vector<double> oracle_s;

  // Verifies one solve: validity, maximality (when claimed), the exact
  // oracle's ratio against the guarantee, and bit-identity with the
  // first solve of the run (same seeds => same matching and counts).
  // `counts_ok` carries the caller's engine-count comparison.
  const auto verify = [&](const SolveResult& res, bool counts_ok) {
    const std::uint64_t t0 = telemetry::now_ns();
    const bool valid =
        lps::is_valid_matching(g, res.matching.edge_ids(g));
    const bool maximal = lps::is_maximal_matching(g, res.matching);
    const std::uint64_t t1 = telemetry::now_ns();
    const SolveResult o = oracle.solver->solve(inst, oconfig);
    const std::uint64_t t2 = telemetry::now_ns();
    span("bench.check", "graph", t0, t1);
    span("bench.oracle", "seq", t1, t2);
    check_s.push_back(seconds_between(t0, t1));
    oracle_s.push_back(seconds_between(t1, t2));
    const double opt = objective(inst, o.matching, weighted) *
                       oracle.bound_factor;
    if (optimum < 0.0) optimum = opt;
    const double ratio =
        optimum > 0.0 ? objective(inst, res.matching, weighted) / optimum
                      : 1.0;
    bool ok = counts_ok && valid && (!claims_maximal || maximal) &&
              opt == optimum &&
              (!oracle.exact || ratio >= guarantee - 1e-9);
    if (reference.has_value()) {
      ok = ok && res.matching == reference->matching &&
           same_stats(res.stats, reference->stats);
    }
    ++attempted;
    if (!valid) ++invalid;
    if (!ok) {
      ++failed;
      std::cout << "FAILED solve " << attempted << ": valid " << valid
                << " maximal " << maximal << " ratio " << ratio
                << " guarantee " << guarantee << " engine counts "
                << (counts_ok ? "same" : "differ") << '\n';
    }
  };

  // Warm-up solve with metrics on: it fills caches and lazy state, gives
  // the engine's round/message counts (deterministic for the seeds), and
  // is the reference every timed solve must reproduce.
  telemetry::set_enabled(true);
  const EngineSnap warm_before = snap_engine();
  SolveResult warm = solver.solve(inst, config);
  const EngineDelta warm_eng = engine_delta(warm_before, snap_engine());
  telemetry::set_enabled(false);
  verify(warm, true);
  reference.emplace(std::move(warm));
  check_s.clear();
  oracle_s.clear();
  const double approx_ratio =
      objective(inst, reference->matching, weighted) / optimum;

  // The closed loop. Untraced solves keep telemetry fully off; in the
  // trace run every other solve is traced (metrics + spans).
  std::vector<double> solve_s;
  std::vector<double> cpu_per_wall;
  std::vector<double> traced_s;
  std::vector<EngineDelta> traced;
  std::vector<double> coverage;
  const Usage loop_start = usage_now();
  const std::uint64_t loop_t0 = telemetry::now_ns();
  const std::uint64_t deadline =
      loop_t0 + static_cast<std::uint64_t>(args.seconds * 1e9);
  const auto enough = [&] {
    const std::size_t reps = std::min(solve_s.size(),
                                      args.trace ? traced_s.size()
                                                 : solve_s.size());
    return reps >= static_cast<std::size_t>(kMinSolveReps) &&
           telemetry::now_ns() >= deadline;
  };
  while (!enough()) {
    const bool traced_rep = args.trace && traced_s.size() < solve_s.size();
    EngineSnap before;
    if (traced_rep) {
      tracer.reset();
      telemetry::set_enabled(true);
      tracer.set_recording(true);
      before = snap_engine();
    }
    const Usage u0 = usage_now();
    const std::uint64_t t0 = telemetry::now_ns();
    const SolveResult res = solver.solve(inst, config);
    const std::uint64_t t1 = telemetry::now_ns();
    const Usage u1 = usage_now();
    const double wall = seconds_between(t0, t1);
    if (traced_rep) {
      const EngineDelta eng = engine_delta(before, snap_engine());
      span("bench.solve", "core", t0, t1);
      verify(res, eng.rounds == warm_eng.rounds &&
                      eng.delivered == warm_eng.delivered);
      tracer.set_recording(false);
      telemetry::set_enabled(false);
      traced_s.push_back(wall);
      traced.push_back(eng);
      coverage.push_back(trace_coverage());
    } else {
      verify(res, true);
      solve_s.push_back(wall);
      cpu_per_wall.push_back((u1.cpu_s - u0.cpu_s) / wall);
    }
    const double looped = seconds_between(loop_t0, telemetry::now_ns());
    while (setup_total < kSetupShare * looped) setup_rep();
  }
  while (setup_s.size() < kMinSetupReps) setup_rep();
  const Usage end = usage_now();

  std::vector<double> verify_s;
  for (std::size_t i = 0; i < check_s.size(); ++i) {
    verify_s.push_back(check_s[i] + oracle_s[i]);
  }
  std::vector<double> sorted_solve = solve_s;
  std::sort(sorted_solve.begin(), sorted_solve.end());
  const double solve_med = median(solve_s);
  const bool correct = path_ok && failed == 0;

  std::vector<Metric> e2e = {
      {"solve_s", solve_med, "s"},
      {"ns_per_msg",
       solve_med * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                             1, warm_eng.delivered)),
       "ns"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(end.maxrss_kb) / 1024.0, "MB"},
      {"approx_ratio", approx_ratio, "ratio"},
  };
  // Printed, not in the result line: fail_frac is the attempted/failed
  // pair, and verify_s swings by more than any regression bound between
  // seeds (Hopcroft-Karp's time depends on the instance), so its parts
  // graph.check_s and seq.oracle_s are reported per layer instead.
  const std::vector<Metric> e2e_printed = {
      {"verify_s", median(verify_s), "s"},
      {"fail_frac",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
  };

  const auto med_of = [&](double EngineDelta::*field) {
    std::vector<double> v;
    for (const EngineDelta& d : traced) v.push_back(d.*field);
    return median(v);
  };
  std::vector<double> non_engine;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    non_engine.push_back(traced_s[i] - traced[i].round_s);
  }
  const double aug_iters = solver_metric(*reference, "aug_iterations");
  const double iterations =
      aug_iters > 0.0 ? aug_iters : solver_metric(*reference, "iterations");
  const double paths = solver_metric(*reference, "paths_applied");
  std::vector<Metric> layers = {
      {"graph.make_instance_s", median(make_s), "s"},
      {"graph.bipartition_s", median(bip_s), "s"},
      {"graph.arcs", 2.0 * static_cast<double>(g.num_edges()), "count"},
      {"graph.csr_bytes", csr_bytes, "bytes-computed"},
      {"graph.check_s", median(check_s), "s"},
      {"runtime.net_setup_s", median(net_setup_s), "s"},
      {"runtime.exchange_p1_s", med_of(&EngineDelta::p1_s), "s"},
      {"runtime.exchange_p2_s", med_of(&EngineDelta::p2_s), "s-cpu"},
      {"runtime.inbox_sort_s", med_of(&EngineDelta::sort_s), "s-cpu"},
      {"runtime.step_s", med_of(&EngineDelta::step_s), "s"},
      {"runtime.round_p50_us", med_of(&EngineDelta::round_p50_us), "us"},
      {"runtime.round_p99_us", med_of(&EngineDelta::round_p99_us), "us"},
      {"runtime.engine_rounds", static_cast<double>(warm_eng.rounds), "count"},
      {"runtime.messages", static_cast<double>(warm_eng.delivered), "count"},
      {"runtime.total_bits", static_cast<double>(reference->stats.total_bits),
       "bits"},
      {"runtime.max_message_bits",
       static_cast<double>(reference->stats.max_message_bits), "bits"},
      {"runtime.cpu_per_wall", median(cpu_per_wall), "ratio"},
      {"runtime.worker_stall_frac", med_of(&EngineDelta::worker_stall_frac),
       "ratio"},
      {"runtime.shard_imbalance", med_of(&EngineDelta::shard_imbalance),
       "ratio"},
      {"core.non_engine_s", median(non_engine), "s"},
      {"core.paper_rounds", static_cast<double>(reference->stats.rounds),
       "count"},
      {"core.net_messages", static_cast<double>(reference->stats.messages),
       "count"},
      {"core.iterations", iterations, "count"},
      {"core.paths_per_iteration", iterations > 0.0 ? paths / iterations : 0.0,
       "ratio"},
      {"seq.oracle_s", median(oracle_s), "s"},
      {"telemetry.coverage", median(coverage), "ratio"},
      {"telemetry.overhead", median(traced_s) / solve_med, "ratio"},
  };

  std::cout << "end-to-end (telemetry off, " << solve_s.size()
            << " timed solves after 1 warm-up):\n";
  print_metrics(e2e);
  print_metrics(e2e_printed);
  std::cout << "  solve_s samples " << solve_s.size() << ", min "
            << sorted_solve.front() << " s, max " << sorted_solve.back()
            << " s; " << failed << " of " << attempted << " solves failed, "
            << invalid << " invalid\n";
  if (args.trace) {
    std::cout << "per-layer (" << traced.size() << " traced solves):\n";
    print_metrics(layers);
  }
  JsonObject context;
  context.add("cpu_model", cpu_model())
      .add("nproc", static_cast<std::uint64_t>(
                        std::thread::hardware_concurrency()))
      .add("l1d_bytes", static_cast<std::uint64_t>(cache.l1d_bytes))
      .add("l2_bytes", static_cast<std::uint64_t>(cache.l2_bytes))
      .add("l3_bytes", static_cast<std::uint64_t>(cache.l3_bytes))
      .add("git_sha", prov.git_sha)
      .add("build_type", prov.build_type)
      .add("loadavg_1m", load[0])
      .add("loadavg_5m", load[1])
      .add("loadavg_15m", load[2])
      .add("loop_cpu_s", end.cpu_s - loop_start.cpu_s)
      .add("minor_faults", static_cast<std::int64_t>(end.minflt))
      .add("major_faults", static_cast<std::int64_t>(end.majflt))
      .add("voluntary_csw", static_cast<std::int64_t>(end.nvcsw))
      .add("involuntary_csw", static_cast<std::int64_t>(end.nivcsw));
  std::cout << "context " << context.str() << '\n';

  JsonObject result;
  result.add("correct", correct)
      .add("attempted", attempted)
      .add("failed", failed)
      .add("metrics", metrics_json(args.trace ? layers : e2e));
  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_solve: " << e.what() << '\n';
    return 2;
  }
}
