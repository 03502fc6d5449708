// Experiment MICRO — google-benchmark microbenchmarks of the substrates
// (engineering numbers, not paper claims): exact solvers, the
// distributed protocols, BigCounter arithmetic, and the generators.
//
// Two extra modes (custom main) gate the instrumentation budgets on the
// same host, with no recorded baseline:
//   --trace-overhead[=E]  metrics + span recording on (tracer reset per
//                         solve) must cost <= 5% solve wall time.
//   --obs-overhead[=E]    structured EventLog recording plus a silent
//                         Monitor sampling the progress board must cost
//                         <= 5% solve wall time.
// Both time 31 interleaved pairs of israeli_itai solves on
// er:n=2^E,deg=4 (default E=20), bare versus instrumented, and exit 1
// when the median per-pair wall ratio exceeds 1.05 (see
// run_overhead_gate).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/runner.hpp"
#include "core/bipartite_counting.hpp"
#include "core/israeli_itai.hpp"
#include "core/luby_mis.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "seq/blossom.hpp"
#include "seq/greedy.hpp"
#include "seq/hopcroft_karp.hpp"
#include "seq/hungarian.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bigint.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

void BM_ErdosRenyi(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(erdos_renyi(n, 8.0 / n, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ErdosRenyi)->Arg(1 << 10)->Arg(1 << 14);

void BM_HopcroftKarp(benchmark::State& state) {
  const NodeId half = static_cast<NodeId>(state.range(0));
  Rng rng(7);
  const auto bg = random_bipartite(half, half, 6.0 / half, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hopcroft_karp(bg.graph, bg.side));
  }
  state.SetItemsProcessed(state.iterations() * bg.graph.num_edges());
}
BENCHMARK(BM_HopcroftKarp)->Arg(1 << 9)->Arg(1 << 12);

void BM_Blossom(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(9);
  const Graph g = erdos_renyi(n, 6.0 / n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blossom_mcm(g));
  }
}
BENCHMARK(BM_Blossom)->Arg(1 << 7)->Arg(1 << 9);

void BM_GreedyMwm(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(11);
  Graph g = erdos_renyi(n, 8.0 / n, rng);
  auto w = uniform_weights(g.num_edges(), 1.0, 100.0, rng);
  const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_mwm(wg));
  }
}
BENCHMARK(BM_GreedyMwm)->Arg(1 << 10)->Arg(1 << 14);

void BM_Hungarian(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  std::vector<std::vector<double>> profit(n, std::vector<double>(n));
  for (auto& row : profit) {
    for (auto& x : row) x = rng.uniform01() * 100.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_weight_assignment(profit));
  }
}
BENCHMARK(BM_Hungarian)->Arg(32)->Arg(128);

void BM_IsraeliItai(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(17);
  const Graph g = erdos_renyi(n, 6.0 / n, rng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    IsraeliItaiOptions opts;
    opts.seed = seed++;
    benchmark::DoNotOptimize(israeli_itai(g, opts));
  }
}
BENCHMARK(BM_IsraeliItai)->Arg(1 << 10)->Arg(1 << 12);

void BM_LubyMis(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(19);
  const Graph g = erdos_renyi(n, 8.0 / n, rng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    MisOptions opts;
    opts.seed = seed++;
    benchmark::DoNotOptimize(luby_mis(g, opts));
  }
}
BENCHMARK(BM_LubyMis)->Arg(1 << 10)->Arg(1 << 12);

void BM_BipartiteCounting(benchmark::State& state) {
  const NodeId half = static_cast<NodeId>(state.range(0));
  Rng rng(21);
  const auto bg = random_bipartite(half, half, 6.0 / half, rng);
  const Matching m = greedy_mcm(bg.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        count_augmenting_paths(bg.graph, bg.side, m, 7, {}));
  }
}
BENCHMARK(BM_BipartiteCounting)->Arg(1 << 9)->Arg(1 << 11);

void BM_BigCounterAdd(benchmark::State& state) {
  Rng rng(23);
  BigCounter a(rng()), b(rng());
  for (int i = 0; i < state.range(0); ++i) {
    a.shift_left(31);
    a += BigCounter(rng());
    b.shift_left(31);
    b += BigCounter(rng());
  }
  for (auto _ : state) {
    BigCounter c = a;
    c += b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BigCounterAdd)->Arg(4)->Arg(64);

void BM_BigCounterSampleBelow(benchmark::State& state) {
  Rng rng(29);
  BigCounter bound(1);
  for (int i = 0; i < state.range(0); ++i) {
    bound.shift_left(31);
    bound += BigCounter(rng() | 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigCounter::sample_below(bound, rng));
  }
}
BENCHMARK(BM_BigCounterSampleBelow)->Arg(4)->Arg(64);

// The paired overhead gate behind both custom modes. er:n=2^E,deg=4 is
// built once; each of kPairs pairs runs one bare and one instrumented
// israeli_itai solve with seed = pair index, alternating which side
// goes first. The verdict reads the median per-pair wall ratio,
// instrumented over bare: pairing cancels the host drift that made
// best-of-N comparisons swing by tens of percent. `instrumented(solve)`
// switches its instrumentation on around one solve() and returns the
// solve's seconds plus the events it recorded; a side that records
// nothing would pass vacuously, so that fails too.
template <class Instrumented>
int run_overhead_gate(const char* what, unsigned nexp,
                      Instrumented instrumented) {
  constexpr int kPairs = 31;
  constexpr double kBudget = 1.05;
  if (nexp < 4 || nexp > 24) {
    std::fprintf(stderr, "bench_micro: %s exponent must be in 4..24, got %u\n",
                 what, nexp);
    return 2;
  }
  const api::Instance inst = api::make_instance(
      "er:n=" + std::to_string(1u << nexp) + ",deg=4", /*seed=*/1);
  const Graph& g = inst.graph();
  std::uint64_t seed = 0;
  const auto solve = [&] {
    IsraeliItaiOptions opts;
    opts.seed = seed;
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(israeli_itai(g, opts));
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  std::vector<double> ratios, bare_s, instr_s;
  std::size_t min_events = static_cast<std::size_t>(-1);
  for (int i = 0; i < kPairs; ++i) {
    seed = static_cast<std::uint64_t>(i);
    double bare = 0.0;
    std::pair<double, std::size_t> instr;
    if (i % 2 == 0) {
      bare = solve();
      instr = instrumented(solve);
    } else {
      instr = instrumented(solve);
      bare = solve();
    }
    ratios.push_back(instr.first / bare);
    bare_s.push_back(bare);
    instr_s.push_back(instr.first);
    min_events = std::min(min_events, instr.second);
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double ratio = median(ratios);
  std::printf(
      "%s overhead: er:n=%u,deg=4 m=%u, %d pairs: median solve %.2f ms bare, "
      "%.2f ms instrumented; per-pair ratio median %.4f (IQR %.4f-%.4f, "
      "budget %.2f), >= %zu events per instrumented solve\n",
      what, g.num_nodes(), g.num_edges(), kPairs, 1e3 * median(bare_s),
      1e3 * median(instr_s), ratio, ratios[kPairs / 4],
      ratios[3 * kPairs / 4], kBudget, min_events);
  if (min_events == 0) {
    std::fprintf(stderr, "%s overhead: instrumented solve recorded nothing\n",
                 what);
    return 1;
  }
  if (ratio > kBudget) {
    std::fprintf(stderr,
                 "%s overhead: instrumented solves %.1f%% slower than bare "
                 "(budget %.0f%%)\n",
                 what, 100.0 * (ratio - 1.0), 100.0 * (kBudget - 1.0));
    return 1;
  }
  return 0;
}

int run_trace_overhead(unsigned nexp) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  return run_overhead_gate("trace", nexp, [&](const auto& solve) {
    tracer.reset();  // fresh event budget per solve: no drop skew
    telemetry::set_enabled(true);
    tracer.set_recording(true);
    const double s = solve();
    tracer.set_recording(false);
    telemetry::set_enabled(false);
    return std::pair{s, tracer.events()};
  });
}

int run_obs_overhead(unsigned nexp) {
  telemetry::EventLog& elog = telemetry::EventLog::global();
  return run_overhead_gate("obs", nexp, [&](const auto& solve) {
    elog.reset();
    elog.set_recording(true);
    telemetry::MonitorOptions mo;
    mo.interval_ms = 10;  // the Monitor's floor: samples during each solve
    mo.out = nullptr;     // silent: sample the board, print nothing
    telemetry::Monitor monitor(mo);
    const double s = solve();
    monitor.stop();
    elog.set_recording(false);
    return std::pair{s, elog.events()};
  });
}

}  // namespace
}  // namespace lps

int main(int argc, char** argv) try {
  // google-benchmark takes its --benchmark_* flags out of argv first.
  benchmark::Initialize(&argc, argv);
  const lps::Args args(argc, argv);
  int (*gate)(unsigned) = nullptr;
  unsigned nexp = 0;
  for (const auto& [flag, run] :
       {std::pair{"trace-overhead", &lps::run_trace_overhead},
        std::pair{"obs-overhead", &lps::run_obs_overhead}}) {
    if (!args.has(flag)) continue;
    if (gate != nullptr) {
      throw std::invalid_argument(
          "--trace-overhead and --obs-overhead are exclusive");
    }
    gate = run;
    // Given alone, the flag reads "true" and the gate runs at E = 20.
    nexp = args.entries().at(flag) == "true" && args.get_bool(flag, true)
               ? 20
               : static_cast<unsigned>(args.get_count(flag, 20, 24));
  }
  args.check_all_used();
  if (gate != nullptr) return gate(nexp);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
} catch (const std::invalid_argument& e) {
  return lps::reject_input("bench_micro", e);
}
