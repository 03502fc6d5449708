// The append-only run ledger (DESIGN.md §14): every api::run_one
// appends one JSONL record to bench/ledger.jsonl, giving the repo
// cross-run memory that tools/perf_diff trends.
//
// Record schema (one JSON object per line):
//
//   kind             "run" for every record written now; perf_diff
//                    still reads the "bench" rows older ledgers carry
//   config           the grouping key tools/perf_diff compares within
//                    (solver|generator|config|...|t<threads>)
//   metric           headline metric name ("wall_ms")
//   value            the measurement
//   higher_is_better direction, so perf_diff needs no metric table
//   git_sha / build_type / threads / timestamp_utc   provenance
//   ...              run context (spec echo, shape, telemetry
//                    percentiles)
//
// Appends are best-effort by design: a read-only checkout or a full
// disk must never fail the run the ledger is merely describing.
//
// Path resolution: the LPS_LEDGER environment variable overrides the
// default `bench/ledger.jsonl` ("0"/"off" disables appends entirely);
// an explicit per-call path wins over both.
#pragma once

#include <string>

namespace lps::api {

struct RunResult;

inline constexpr const char* kDefaultLedgerPath = "bench/ledger.jsonl";

/// Resolve where ledger appends go. `override_path` wins when non-empty
/// ("off"/"0" disables); otherwise LPS_LEDGER, otherwise the default.
/// Returns "" when appends are disabled.
std::string resolve_ledger_path(const std::string& override_path = "");

/// Append one pre-rendered JSON line. Creates parent directories as
/// needed. Best-effort: returns false (never throws) on any failure or
/// when `path` is empty.
bool append_ledger_line(const std::string& path, const std::string& json_line);

/// Render + append the "run" record for a finished run_one result.
bool append_run_ledger(const RunResult& result, const std::string& path);

}  // namespace lps::api
