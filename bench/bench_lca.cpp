// Experiment suite LCA — the local computation oracle subsystem's
// headline claim: answering "is edge e matched?" through the src/lca
// oracles costs probes that grow sublinearly in n, while the global
// solve it replaces grows (at least) linearly. Each row runs the
// registered global solver once (for the wall-time baseline and the
// agreement audit) and then serves a batch of sampled edge queries
// through the paired oracle; the probes/query, queries/sec, cache hit
// rate, and agreement verdict land in the per-run JSON via the runner.
//
//   ./bench_lca [--trials 3] [--max-n 16384] [--queries 256]
//               [--threads 1] [--json-dir bench/out] [--json false]
//               [--trace out.json]
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "bench/bench_common.hpp"
#include "runtime/thread_pool.hpp"

using namespace lps;
using bench::fmt;

int main(int argc, char** argv) try {
  const Args opts(argc, argv);
  const int trials = static_cast<int>(opts.get_count("trials", 3, INT32_MAX));
  const std::int64_t max_n =
      static_cast<std::int64_t>(opts.get_count("max-n", 16384, INT64_MAX));
  const std::uint64_t queries = opts.get_count("queries", 256, UINT64_MAX);
  const unsigned threads = static_cast<unsigned>(
      opts.get_count("threads", 1, ThreadPool::kMaxThreads));
  const bool emit_json = opts.get_bool("json", true);
  const std::string json_dir = opts.get("json-dir", "bench/out");
  const std::string trace_path = opts.get("trace", "");
  opts.check_all_used();
  const bench::TraceGuard trace(trace_path);

  bench::print_header(
      "LCA: oracle point queries vs the global solve",
      "probes/query grows sublinearly in n (probes/n falls as n rises) "
      "while the global solve is Omega(n); the oracle answers must agree "
      "with the global matching (agree = 1)");

  Table t({"solver", "n", "m (mean)", "global ms (mean)", "queries",
           "probes/query (mean)", "probes/n", "queries/sec", "cache hit",
           "agree"});

  for (const char* solver : {"rank_greedy_mcm", "israeli_itai"}) {
    for (const std::int64_t n : {1024, 4096, 16384, 65536}) {
      if (n > max_n) continue;
      StreamingStats edges, global_ms, ppq, qps, hit;
      int agree = 1;
      for (int trial = 0; trial < trials; ++trial) {
        api::RunSpec spec;
        spec.generator = "er:n=" + std::to_string(n) + ",deg=8";
        spec.solver = solver;
        spec.instance_seed = 101 + 977u * trial;
        spec.solver_seed = 7 + 13u * trial;
        spec.threads = threads;
        spec.oracle = "none";  // no optimum needed; the LCA leg is the point
        spec.lca = "auto";
        spec.lca_queries = queries;
        const api::RunResult res = api::run_one(spec);
        edges.add(static_cast<double>(res.m));
        global_ms.add(res.wall_ms);
        ppq.add(res.lca_probes_per_query);
        qps.add(res.lca_queries_per_sec);
        hit.add(res.lca_cache_hit_rate);
        if (res.lca_agree != 1) agree = res.lca_agree;
        if (emit_json) {
          api::write_json(res, json_dir,
                          "LCA_" + std::string(solver) + "_n" +
                              std::to_string(n) + "_t" +
                              std::to_string(trial));
        }
      }
      t.row();
      t.cell(solver);
      t.cell(static_cast<std::size_t>(n));
      t.cell(fmt(edges.mean(), 1));
      t.cell(fmt(global_ms.mean(), 3));
      t.cell(static_cast<std::size_t>(queries));
      t.cell(fmt(ppq.mean(), 2));
      t.cell(fmt(ppq.mean() / static_cast<double>(n), 5));
      t.cell(fmt(qps.mean(), 0));
      t.cell(fmt(hit.mean(), 4));
      t.cell(agree);
    }
  }
  bench::print_table(t);
  return 0;
} catch (const std::invalid_argument& e) {
  return reject_input("bench_lca", e);
}
