#include "api/ledger.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "api/json.hpp"
#include "api/runner.hpp"

namespace lps::api {

namespace {

bool disabled_token(const std::string& s) {
  return s == "0" || s == "off" || s == "OFF" || s == "none";
}

}  // namespace

std::string resolve_ledger_path(const std::string& override_path) {
  if (!override_path.empty()) {
    return disabled_token(override_path) ? std::string{} : override_path;
  }
  if (const char* env = std::getenv("LPS_LEDGER")) {
    const std::string v(env);
    if (v.empty() || disabled_token(v)) return {};
    return v;
  }
  return kDefaultLedgerPath;
}

bool append_ledger_line(const std::string& path,
                        const std::string& json_line) {
  if (path.empty()) return false;
  try {
    const std::filesystem::path p(path);
    if (p.has_parent_path()) {
      std::error_code ec;
      std::filesystem::create_directories(p.parent_path(), ec);
    }
    std::ofstream os(path, std::ios::app);
    if (!os) return false;
    os << json_line << "\n";
    return static_cast<bool>(os);
  } catch (...) {
    return false;  // best-effort: the ledger never fails the run
  }
}

bool append_run_ledger(const RunResult& result, const std::string& path) {
  if (path.empty()) return false;
  const RunSpec& spec = result.spec;
  // The grouping key: everything that makes two runs comparable. Sweeps
  // over seeds land in one group; changing solver/generator/config/
  // threads starts a new trend line.
  std::string key = spec.solver + "|" + spec.generator;
  if (!spec.config.empty()) key += "|" + spec.config;
  if (!spec.dynamic.empty()) key += "|dyn-" + spec.dynamic;
  if (!spec.faults.empty()) key += "|f-" + spec.faults;
  key += "|t" + std::to_string(spec.threads);

  JsonObject o;
  o.add("kind", "run")
      .add("config", key)
      .add("metric", "wall_ms")
      .add("value", result.wall_ms)
      .add("higher_is_better", false)
      .add("git_sha", result.prov_git_sha)
      .add("build_type", result.prov_build_type)
      .add("threads", static_cast<std::uint64_t>(result.prov_threads))
      .add("timestamp_utc", result.prov_timestamp_utc)
      .add("solver", spec.solver)
      .add("generator", spec.generator)
      .add("n", static_cast<std::uint64_t>(result.n))
      .add("m", static_cast<std::uint64_t>(result.m))
      .add("rounds", result.net.rounds)
      .add("messages", result.net.messages)
      .add("matching_size", static_cast<std::uint64_t>(result.matching_size))
      .add("valid", result.valid);
  if (result.telemetry.enabled && result.telemetry.rounds > 0) {
    o.add("round_ns_p50", result.telemetry.round_ns_p50)
        .add("round_ns_p90", result.telemetry.round_ns_p90)
        .add("round_ns_p99", result.telemetry.round_ns_p99);
  }
  if (!spec.dynamic.empty()) {
    o.add("dynamic_updates_per_sec", result.dynamic_updates_per_sec);
  }
  return append_ledger_line(path, o.str());
}

}  // namespace lps::api
