// runner: command-line front-end over api::run_one. One run per
// invocation; prints the per-run JSON record (telemetry block included)
// to stdout and optionally writes it, plus a Chrome trace and a
// structured event log, to disk.
//
//   runner --generator er:n=1048576,deg=4 --solver israeli_itai
//          --threads 4 --trace out.json
//   runner --generator grid:rows=64,cols=64 --solver bipartite_mcm
//          --lca auto --lca-queries 5000 --json-dir bench/out
//   runner --generator er:n=4096,deg=8 --solver israeli_itai
//          --faults drop10 --events events.jsonl
//   runner --generator er:n=1048576,deg=4 --solver israeli_itai
//          --monitor --stall-timeout-ms 30000 --stall-abort
//
// Flags mirror api::RunSpec; see src/api/runner.hpp for semantics.
//
// Output contract: stdout carries exactly one line — the run's JSON
// record — so pipelines can parse it unconditionally. Everything else
// (status lines, watchdog dumps, file-written notes, diagnostics) goes
// to stderr. --log-level tunes the stderr side only: quiet drops the
// informational notes, debug adds a resolved-spec echo.
//
// Exit codes: 0 success, 1 runtime failure (trace write, I/O, internal
// error), 2 rejected input — an unknown flag, a count out of range, or
// a malformed generator / config / stream / fault spec — as one
// `runner: invalid spec:` line on stderr. run_one validates every spec
// before any solve work, so rejection is fast and uniform across legs.
// A stall abort (--stall-abort) exits with telemetry::kWatchdogExitCode (86).
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "api/runner.hpp"
#include "runtime/thread_pool.hpp"
#include "util/options.hpp"

namespace {

constexpr std::uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();

void usage() {
  std::printf(
      "usage: runner --generator SPEC --solver NAME [options]\n"
      "  --config KV          solver config (k1=v1,k2=v2)\n"
      "  --seed N             instance seed (default 1)\n"
      "  --solver-seed N      solver seed (default 1)\n"
      "  --threads N          1 = inline, 0 = hardware concurrency, <= 1024\n"
      "  --shards N           0 = auto (L2-sized), 1 = single shard\n"
      "  --oracle NAME        auto | none | registry solver\n"
      "  --feed-oracle        pass the exact optimum to the solver\n"
      "  --lca NAME           LCA leg: auto | oracle name\n"
      "  --lca-queries N      0 = every edge once\n"
      "  --lca-cache N        oracle memo bound (0 = default)\n"
      "  --dynamic NAME       dynamic leg: greedy | repair | scratch\n"
      "  --dynamic-stream S   update-stream spec (required with --dynamic)\n"
      "  --dynamic-config KV  maintainer config\n"
      "  --dynamic-checkpoints N  ratio sample points (0 = off, default 8)\n"
      "  --faults SPEC        fault preset (drop10|dup5|delay4|reorder|\n"
      "                       flap1|advdel|chaos) or name:k=v,... plan;\n"
      "                       flap/adversarial plans need --dynamic\n"
      "  --trace PATH         write a Chrome/Perfetto trace of the run\n"
      "  --events PATH        write the structured event log (JSONL)\n"
      "  --monitor            periodic progress line on stderr (1s)\n"
      "  --monitor-ms N       status-line period in ms (implies --monitor)\n"
      "  --stall-timeout-ms N watchdog: dump state when no round\n"
      "                       completes for N ms (0 = off)\n"
      "  --stall-abort        exit 86 after the watchdog dump\n"
      "  --ledger PATH|off    run-ledger destination (default\n"
      "                       bench/ledger.jsonl; LPS_LEDGER env overrides)\n"
      "  --log-level L        quiet | info | debug (stderr verbosity;\n"
      "                       stdout always carries only the JSON record)\n"
      "  --no-telemetry       skip metric collection (no telemetry block)\n"
      "  --json-dir DIR       also write the record to DIR\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Flag values are validated here and spec strings in run_one; either
  // way a malformed input is one diagnostic line and exit 2.
  try {
    const lps::Args opts(argc, argv);
    if (opts.get_bool("help", false) || argc <= 1) {
      usage();
      return argc <= 1 ? 2 : 0;
    }
    const std::string log_level = opts.get("log-level", "info");
    if (log_level != "quiet" && log_level != "info" && log_level != "debug") {
      throw std::invalid_argument("unknown log level '" + log_level +
                                  "' (expected quiet|info|debug)");
    }
    const bool quiet = log_level == "quiet";
    const bool debug = log_level == "debug";

    lps::api::RunSpec spec;
    spec.generator = opts.get("generator", "");
    spec.solver = opts.get("solver", "");
    if (spec.generator.empty() || spec.solver.empty()) {
      usage();
      return 2;
    }
    spec.config = opts.get("config", "");
    spec.instance_seed = opts.get_count("seed", 1, UINT64_MAX);
    spec.solver_seed = opts.get_count("solver-seed", 1, UINT64_MAX);
    spec.threads = static_cast<unsigned>(
        opts.get_count("threads", 1, lps::ThreadPool::kMaxThreads));
    spec.shards =
        static_cast<unsigned>(opts.get_count("shards", 0, kMaxUnsigned));
    spec.oracle = opts.get("oracle", "auto");
    spec.feed_oracle = opts.get_bool("feed-oracle", false);
    spec.lca = opts.get("lca", "");
    spec.lca_queries = opts.get_count("lca-queries", 0, UINT64_MAX);
    spec.lca_cache = opts.get_count("lca-cache", 0, UINT64_MAX);
    spec.dynamic = opts.get("dynamic", "");
    spec.dynamic_stream = opts.get("dynamic-stream", "");
    spec.dynamic_config = opts.get("dynamic-config", "");
    spec.dynamic_checkpoints =
        opts.get_count("dynamic-checkpoints", 8, UINT64_MAX);
    spec.faults = opts.get("faults", "");
    spec.trace = opts.get("trace", "");
    spec.events = opts.get("events", "");
    spec.telemetry = !opts.get_bool("no-telemetry", false);
    const std::uint64_t monitor_ms =
        opts.get_count("monitor-ms", 0, kMaxUnsigned);
    spec.monitor_ms = monitor_ms > 0 ? static_cast<unsigned>(monitor_ms)
                      : opts.get_bool("monitor", false) ? 1000u
                                                        : 0u;
    spec.stall_timeout_ms = static_cast<unsigned>(
        opts.get_count("stall-timeout-ms", 0, kMaxUnsigned));
    spec.stall_abort = opts.get_bool("stall-abort", false);
    spec.ledger = opts.get("ledger", "");
    const std::string dir = opts.get("json-dir", "");
    opts.check_all_used();

    if (debug) {
      std::fprintf(stderr,
                   "runner: spec: generator=%s solver=%s config='%s' "
                   "seed=%llu solver-seed=%llu threads=%u shards=%u "
                   "oracle=%s faults='%s' dynamic='%s' trace='%s' "
                   "events='%s' monitor-ms=%u stall-timeout-ms=%u\n",
                   spec.generator.c_str(), spec.solver.c_str(),
                   spec.config.c_str(),
                   static_cast<unsigned long long>(spec.instance_seed),
                   static_cast<unsigned long long>(spec.solver_seed),
                   spec.threads, spec.shards, spec.oracle.c_str(),
                   spec.faults.c_str(), spec.dynamic.c_str(),
                   spec.trace.c_str(), spec.events.c_str(), spec.monitor_ms,
                   spec.stall_timeout_ms);
    }

    const lps::api::RunResult result = lps::api::run_one(spec);
    std::cout << result.to_json() << "\n";
    if (!dir.empty()) {
      const std::string path = lps::api::write_json(result, dir);
      if (!quiet) std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    if (!result.trace_path.empty()) {
      if (!quiet) {
        std::fprintf(stderr, "trace written to %s\n",
                     result.trace_path.c_str());
      }
    } else if (!spec.trace.empty()) {
      std::fprintf(stderr, "runner: failed to write trace to %s\n",
                   spec.trace.c_str());
      return 1;
    }
    if (!result.events_path.empty()) {
      if (!quiet) {
        std::fprintf(stderr, "event log written to %s (%llu events)\n",
                     result.events_path.c_str(),
                     static_cast<unsigned long long>(result.events_recorded));
      }
    } else if (!spec.events.empty()) {
      std::fprintf(stderr, "runner: failed to write event log to %s\n",
                   spec.events.c_str());
      return 1;
    }
    if (result.stalled) {
      std::fprintf(stderr, "runner: watchdog reported a stall (see dump)\n");
    }
  } catch (const std::invalid_argument& e) {
    // Every unknown flag, malformed flag value or spec string lands
    // here before any solve work: one diagnostic line, exit 2.
    std::fprintf(stderr, "runner: invalid spec: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "runner: %s\n", e.what());
    return 1;
  }
  return 0;
}
