// Experiment suite FAULTS — degradation and recovery under the failure-
// scenario registry (src/faults/scenarios): every registered fault
// profile is driven through the runner against both fault surfaces, and
// the suite gates on the recovery claims rather than just printing.
//
//   * engine rows: israeli_itai under message-layer faults (drop /
//     duplicate / bounded delay / inbox reorder) on an ER graph. The
//     gate: the post-resync matching is valid and within 0.9x of the
//     fault-free matching size at the same seed.
//   * maintainer rows: greedy and repair maintainers under graph-layer
//     fault epochs (vertex crash/recover flaps, adaptive adversary
//     deleting matched edges) after a churn stream. The gate: every
//     epoch-end audit passes and the terminal heal re-attains >= 0.9x
//     the fault-free baseline. Recovery latency lands as p50/p99 ns.
//
// Scenarios with both fault families (chaos) produce rows on both
// surfaces. --smoke restricts to the registry's smoke subset at small n
// (the CI sanitizer leg); the full run measures n = 2^18.
//
//   ./bench_faults [--smoke] [--n 262144] [--json true]
//                  [--json-path BENCH_faults.json] [--trace out.json]
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "api/runner.hpp"
#include "bench/bench_common.hpp"
#include "faults/scenarios.hpp"

using namespace lps;
using bench::fmt;

namespace {

struct Row {
  std::string scenario;
  std::string surface;  // "engine" | "maintainer"
  std::string subject;  // solver or maintainer name
  std::int64_t n = 0;
  api::RunResult res;
  /// Engine rows: faulted size / fault-free size (same seeds).
  /// Maintainer rows: the session's terminal-heal ratio.
  double ratio = 0.0;
  double min_ratio = 0.0;  // maintainer rows: worst epoch-end ratio
  bool valid = false;
  double resyncs = 0.0;  // engine rows: corrective sweeps
};

}  // namespace

int main(int argc, char** argv) try {
  const Args opts(argc, argv);
  const bool smoke = opts.get_bool("smoke", false);
  const std::int64_t n = static_cast<std::int64_t>(
      opts.get_count("n", smoke ? 4096 : (1 << 18), kInvalidNode - 1));
  const bool emit_json = opts.get_bool("json", !smoke);
  const std::string json_path = opts.get("json-path", "BENCH_faults.json");
  const std::string trace_path = opts.get("trace", "");
  opts.check_all_used();
  const bench::TraceGuard trace(trace_path);

  bench::print_header(
      "Fault injection: degradation and recovery per failure profile",
      "under every registered fault profile (drop <= 10%, dup <= 5%, delay "
      "<= 4 rounds, 1% vertex flaps, adversarial delete-matched) the engine "
      "clients resync to a valid matching within 0.9x of fault-free size, "
      "and the maintainers end every fault epoch valid with the repair "
      "maintainer re-attaining >= 0.9x after the terminal heal");

  Table t({"scenario", "surface", "subject", "n", "size", "ratio",
           "ratio (min)", "recovery p50 (us)", "recovery p99 (us)", "resyncs",
           "valid"});
  std::vector<Row> rows;

  const std::string generator =
      "er:n=" + std::to_string(n) + ",deg=8";
  // Fault-free reference size for the engine rows, same seeds/specs.
  std::size_t fault_free_size = 0;
  {
    api::RunSpec spec;
    spec.generator = generator;
    spec.solver = "israeli_itai";
    spec.oracle = "none";
    spec.telemetry = false;
    fault_free_size = api::run_one(spec).matching_size;
  }

  const std::string stream = "churn:n=" + std::to_string(n) +
                             ",m0=" + std::to_string(2 * n) +
                             ",updates=" + std::to_string(smoke ? 2000 : 20000);

  for (const faults::FaultScenario& sc : faults::fault_scenarios()) {
    if (smoke && !sc.smoke) continue;
    const faults::FaultPlan plan = faults::make_fault_plan(sc.name);

    if (plan.message_faults()) {
      api::RunSpec spec;
      spec.generator = generator;
      spec.solver = "israeli_itai";
      spec.oracle = "none";
      spec.telemetry = false;
      // Message-layer faults only: the graph half of a combined profile
      // is exercised by the maintainer row below.
      faults::FaultPlan msg = plan;
      msg.flap = 0.0;
      msg.adversarial = 0.0;
      msg.epochs = 0;
      spec.faults = msg.to_spec();
      Row row;
      row.scenario = sc.name;
      row.surface = "engine";
      row.subject = "israeli_itai";
      row.n = n;
      row.res = api::run_one(spec);
      row.ratio = fault_free_size > 0
                      ? static_cast<double>(row.res.matching_size) /
                            static_cast<double>(fault_free_size)
                      : 1.0;
      row.min_ratio = row.ratio;
      row.valid = row.res.valid;
      row.resyncs = row.res.metrics.count("resyncs")
                        ? row.res.metrics.at("resyncs")
                        : 0.0;
      t.row();
      t.cell(row.scenario);
      t.cell(row.surface);
      t.cell(row.subject);
      t.cell(static_cast<std::size_t>(row.n));
      t.cell(static_cast<std::size_t>(row.res.matching_size));
      t.cell(fmt(row.ratio, 4));
      t.cell(fmt(row.min_ratio, 4));
      t.cell("-");
      t.cell("-");
      t.cell(fmt(row.resyncs, 0));
      t.cell(row.valid ? 1 : 0);
      rows.push_back(std::move(row));
    }

    if (plan.graph_faults()) {
      for (const char* maintainer : {"greedy", "repair"}) {
        api::RunSpec spec;
        // The static solve is a stand-in (the fault session is the
        // point); keep it trivial so the row's cost is the session.
        spec.generator = "path:n=2";
        spec.solver = "greedy_mcm";
        spec.oracle = "none";
        spec.dynamic = maintainer;
        spec.dynamic_stream = stream;
        spec.dynamic_checkpoints = 0;
        // Graph-layer faults only: message faults have no engine to act
        // on in the dynamic leg.
        faults::FaultPlan graph = plan;
        graph.drop = 0.0;
        graph.dup = 0.0;
        graph.delay_p = 0.0;
        graph.delay_rounds = 0;
        graph.reorder = false;
        spec.faults = graph.to_spec();
        Row row;
        row.scenario = sc.name;
        row.surface = "maintainer";
        row.subject = maintainer;
        row.n = n;
        row.res = api::run_one(spec);
        row.ratio = row.res.fault_final_ratio;
        row.min_ratio = row.res.fault_min_ratio;
        row.valid = row.res.dynamic_valid && row.res.fault_all_valid &&
                    row.res.fault_final_valid;
        t.row();
        t.cell(row.scenario);
        t.cell(row.surface);
        t.cell(row.subject);
        t.cell(static_cast<std::size_t>(row.n));
        t.cell(static_cast<std::size_t>(row.res.fault_baseline_size));
        t.cell(fmt(row.ratio, 4));
        t.cell(fmt(row.min_ratio, 4));
        t.cell(fmt(static_cast<double>(row.res.fault_recovery_p50_ns) / 1e3, 1));
        t.cell(fmt(static_cast<double>(row.res.fault_recovery_p99_ns) / 1e3, 1));
        t.cell("-");
        t.cell(row.valid ? 1 : 0);
        rows.push_back(std::move(row));
      }
    }
  }
  bench::print_table(t);

  // The gates: validity everywhere; the 0.9x recovery floor on the
  // engine clients and the repair maintainer (greedy has no repair
  // machinery, so only validity is demanded of it).
  bool ok = true;
  for (const Row& row : rows) {
    if (!row.valid) {
      std::cerr << "FAIL: invalid result in " << row.surface << "/"
                << row.subject << " @ " << row.scenario << "\n";
      ok = false;
    }
    const bool gated = row.surface == "engine" || row.subject == "repair";
    if (gated && row.ratio < 0.9) {
      std::cerr << "FAIL: recovery ratio " << row.ratio << " < 0.9 in "
                << row.surface << "/" << row.subject << " @ " << row.scenario
                << "\n";
      ok = false;
    }
  }

  if (emit_json && !rows.empty()) {
    std::ofstream os(json_path);
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      api::JsonObject o;
      o.add("scenario", row.scenario)
          .add("surface", row.surface)
          .add("subject", row.subject)
          .add("n", static_cast<std::uint64_t>(row.n))
          .add("fault_plan", row.res.fault_plan.empty() ? row.res.spec.faults
                                                        : row.res.fault_plan)
          .add("matching_size",
               static_cast<std::uint64_t>(row.surface == "engine"
                                              ? row.res.matching_size
                                              : row.res.fault_baseline_size))
          .add("ratio", row.ratio)
          .add("ratio_min", row.min_ratio)
          .add("recovery_p50_ns", row.res.fault_recovery_p50_ns)
          .add("recovery_p99_ns", row.res.fault_recovery_p99_ns)
          .add("recourse", row.res.fault_recourse)
          .add("resyncs", row.resyncs)
          .add("valid", row.valid)
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
  return reject_input("bench_faults", e);
}
