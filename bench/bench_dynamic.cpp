// Experiment suite DYNAMIC — the fully dynamic matching engine's
// headline claim: under edge churn, maintaining the matching
// incrementally (src/dynamic) costs orders of magnitude less per update
// than re-solving from scratch, while staying within a few percent of
// the from-scratch quality and flipping O(1) matched edges per update.
//
// Each incremental row streams a churn trace through a maintainer via
// the runner's dynamic leg (so the numbers land in the same per-run
// JSON schema as everything else); the scratch baseline is measured by
// timing snapshot+registry-solve round trips per update on the final
// graph — exactly what a static scheduler pays every slot. speedup =
// incremental updates/sec over scratch updates/sec.
//
//   ./bench_dynamic [--smoke] [--max-n 1048576] [--updates 0]
//                   [--sample 20] [--json true] [--json-path BENCH_dynamic.json]
//                   [--trace out.json]
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "api/runner.hpp"
#include "bench/bench_common.hpp"
#include "dynamic/matcher.hpp"
#include "dynamic/stream.hpp"

using namespace lps;
using bench::fmt;

namespace {

/// Updates/sec of the solve-from-scratch path: materialize the final
/// graph of `stream`, then time delete+reinsert updates through the
/// scratch maintainer (snapshot + registry solve + adopt, per update).
double scratch_updates_per_sec(const dynamic::StreamSpec& stream,
                               int sample_updates) {
  dynamic::GreedyDynamicMatcher builder{
      dynamic::DynamicGraph(stream.initial_nodes)};
  builder.apply_trace(stream.trace);
  const dynamic::Snapshot snap = builder.graph().snapshot();
  if (snap.graph.num_edges() == 0) return 0.0;
  auto scratch = dynamic::make_matcher(
      "scratch", dynamic::DynamicGraph::from_graph(snap.graph),
      {{"solver", "greedy_mcm"}});
  int applied = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int j = 0; applied < sample_updates; ++j) {
    const Edge e = snap.graph.edge(static_cast<EdgeId>(
        static_cast<std::size_t>(j) % snap.graph.num_edges()));
    scratch->apply({dynamic::UpdateKind::kDeleteEdge, e.u, e.v});
    scratch->apply({dynamic::UpdateKind::kInsertEdge, e.u, e.v});
    applied += 2;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return secs > 0.0 ? applied / secs : 0.0;
}

struct Row {
  std::int64_t n = 0;
  std::string stream;
  std::string churn;
  std::string maintainer;
  api::RunResult res;
  double scratch_ups = 0.0;
  double speedup = 0.0;
};

}  // namespace

int main(int argc, char** argv) try {
  const Args opts(argc, argv);
  const bool smoke = opts.get_bool("smoke", false);
  const std::int64_t max_n = static_cast<std::int64_t>(
      opts.get_count("max-n", smoke ? 4096 : 1048576, INT64_MAX));
  const std::int64_t updates_override =
      static_cast<std::int64_t>(opts.get_count("updates", 0, INT64_MAX));
  const int sample =
      static_cast<int>(opts.get_count("sample", smoke ? 6 : 20, INT32_MAX));
  const bool emit_json = opts.get_bool("json", !smoke);
  const std::string json_path = opts.get("json-path", "BENCH_dynamic.json");
  const std::string trace_path = opts.get("trace", "");
  opts.check_all_used();
  const bench::TraceGuard trace(trace_path);

  bench::print_header(
      "Dynamic matching: incremental maintenance vs solve-from-scratch",
      "under churn the incremental path sustains >= 10x the updates/sec of "
      "re-solving from scratch (low churn, n = 2^18) with O(1) recourse per "
      "update and near-scratch matching quality (ratio ~ 1)");

  Table t({"n", "churn", "maintainer", "m (final)", "updates", "updates/sec",
           "recourse/upd", "ratio", "ratio (min)", "scratch upd/sec",
           "speedup", "valid"});

  std::vector<Row> rows;
  std::vector<std::int64_t> sizes;
  for (const std::int64_t n : {std::int64_t{1} << 12, std::int64_t{1} << 14,
                               std::int64_t{1} << 16, std::int64_t{1} << 18,
                               std::int64_t{1} << 20}) {
    if (n <= max_n) sizes.push_back(n);
  }

  for (const std::int64_t n : sizes) {
    const std::int64_t m0 = 2 * n;
    // Churn rate = stream length relative to the initial edge count.
    for (const auto& [churn_name, frac] :
         std::vector<std::pair<std::string, double>>{
             {"low", 0.05}, {"mid", 0.25}, {"high", 1.0}}) {
      if (smoke && churn_name != "low") continue;
      const std::int64_t updates =
          updates_override > 0
              ? updates_override
              : std::max<std::int64_t>(2000, static_cast<std::int64_t>(
                                                 frac * static_cast<double>(m0)));
      const std::string stream = "churn:n=" + std::to_string(n) +
                                 ",m0=" + std::to_string(m0) +
                                 ",updates=" + std::to_string(updates);
      const dynamic::StreamSpec trace = dynamic::make_update_stream(stream, 101);
      const double scratch_ups = scratch_updates_per_sec(trace, sample);
      for (const char* maintainer : {"greedy", "repair"}) {
        api::RunSpec spec;
        // The static solve is a stand-in (the leg is the point); keep
        // it trivial so the row's cost is the dynamic replay.
        spec.generator = "path:n=2";
        spec.solver = "greedy_mcm";
        spec.oracle = "none";
        spec.instance_seed = 101;
        spec.dynamic = maintainer;
        spec.dynamic_stream = stream;
        spec.dynamic_checkpoints = smoke ? 2 : 4;
        Row row;
        row.n = n;
        row.stream = stream;
        row.churn = churn_name;
        row.maintainer = maintainer;
        row.res = api::run_one(spec);
        row.scratch_ups = scratch_ups;
        row.speedup = scratch_ups > 0.0
                          ? row.res.dynamic_updates_per_sec / scratch_ups
                          : 0.0;
        t.row();
        t.cell(static_cast<std::size_t>(n));
        t.cell(churn_name);
        t.cell(maintainer);
        t.cell(static_cast<std::size_t>(row.res.dynamic_final_edges));
        t.cell(static_cast<std::size_t>(row.res.dynamic_updates));
        t.cell(fmt(row.res.dynamic_updates_per_sec, 0));
        t.cell(fmt(row.res.dynamic_recourse_per_update, 3));
        t.cell(fmt(row.res.dynamic_ratio, 4));
        t.cell(fmt(row.res.dynamic_ratio_min, 4));
        t.cell(fmt(row.scratch_ups, 1));
        t.cell(fmt(row.speedup, 1));
        t.cell(row.res.dynamic_valid ? 1 : 0);
        rows.push_back(std::move(row));
      }
    }
  }
  bench::print_table(t);

  // Smoke is a correctness gate, not a perf gate: every row must hold a
  // valid matching and stay within 2x of the baseline quality.
  bool ok = true;
  for (const Row& row : rows) {
    if (!row.res.dynamic_valid) {
      std::cerr << "FAIL: invalid matching in " << row.maintainer << " @ "
                << row.stream << "\n";
      ok = false;
    }
    if (row.res.dynamic_ratio >= 0.0 && row.res.dynamic_ratio < 0.5) {
      std::cerr << "FAIL: ratio " << row.res.dynamic_ratio << " in "
                << row.maintainer << " @ " << row.stream << "\n";
      ok = false;
    }
  }

  if (emit_json && !rows.empty()) {
    std::ofstream os(json_path);
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      api::JsonObject o;
      o.add("n", static_cast<std::uint64_t>(row.n))
          .add("stream", row.stream)
          .add("churn", row.churn)
          .add("maintainer", row.maintainer)
          .add("updates", row.res.dynamic_updates)
          .add("updates_per_sec", row.res.dynamic_updates_per_sec)
          .add("recourse_per_update", row.res.dynamic_recourse_per_update)
          .add("final_size",
               static_cast<std::uint64_t>(row.res.dynamic_final_size))
          .add("ratio", row.res.dynamic_ratio)
          .add("ratio_min", row.res.dynamic_ratio_min)
          .add("baseline", row.res.dynamic_baseline)
          .add("scratch_updates_per_sec", row.scratch_ups)
          .add("speedup_vs_scratch", row.speedup)
          .add("valid", row.res.dynamic_valid)
          .add("git_sha", row.res.prov_git_sha)
          .add("build_type", row.res.prov_build_type)
          .add("timestamp_utc", row.res.prov_timestamp_utc);
      os << "  " << o.str() << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "]\n";
    std::cout << "wrote " << rows.size() << " rows to " << json_path << "\n";
  }
  return ok ? 0 : 1;
} catch (const std::invalid_argument& e) {
  return reject_input("bench_dynamic", e);
}
