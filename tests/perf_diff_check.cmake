# CLI contract test for tools/perf_diff (PR 9 tentpole): a synthetic
# 25% throughput regression in a fixture ledger must exit 1 and name
# the offending config; a steady ledger passes; parse/IO/usage errors
# exit 2.
#
#   cmake -DPERF_DIFF=<path-to-perf_diff-binary> -P perf_diff_check.cmake
#
# Registered by the top-level CMakeLists as test `perf_diff_check`.
if(NOT PERF_DIFF)
  message(FATAL_ERROR "pass -DPERF_DIFF=<path to the perf_diff binary>")
endif()

set(workdir "${CMAKE_CURRENT_BINARY_DIR}/perf_diff_check_out")
file(REMOVE_RECURSE "${workdir}")
file(MAKE_DIRECTORY "${workdir}")

function(expect_code expected)
  execute_process(
    COMMAND "${PERF_DIFF}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL ${expected})
    message(SEND_ERROR
        "expected exit ${expected}, got '${code}' for: ${ARGN}\n"
        "stdout: ${out}\nstderr: ${err}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

macro(ledger_row config value)
  string(APPEND ledger
      "{\"kind\":\"bench\",\"config\":\"${config}\","
      "\"metric\":\"rounds_per_sec\",\"value\":${value},"
      "\"higher_is_better\":true,\"git_sha\":\"test\","
      "\"build_type\":\"Release\",\"threads\":1,"
      "\"timestamp_utc\":\"2026-01-01T00:00:00Z\"}\n")
endmacro()

# Steady history: latest within noise of the prior median -> exit 0.
set(ledger "")
ledger_row("engine:n=1024,deg=4" 100.0)
ledger_row("engine:n=1024,deg=4" 101.0)
ledger_row("engine:n=1024,deg=4" 99.0)
ledger_row("engine:n=1024,deg=4" 98.5)
file(WRITE "${workdir}/steady.jsonl" "${ledger}")
expect_code(0 --check --ledger "${workdir}/steady.jsonl")

# Synthetic 25% regression: 100,101,99 then 75 (median 100 -> 25% worse
# on a higher-is-better metric, over the default 20% threshold).
set(ledger "")
ledger_row("engine:n=1024,deg=4" 100.0)
ledger_row("engine:n=1024,deg=4" 101.0)
ledger_row("engine:n=1024,deg=4" 99.0)
ledger_row("engine:n=1024,deg=4" 75.0)
file(WRITE "${workdir}/regressed.jsonl" "${ledger}")
expect_code(1 --check --ledger "${workdir}/regressed.jsonl")
if(NOT last_err MATCHES "perf_diff: regression: engine:n=1024,deg=4")
  message(SEND_ERROR
      "regression verdict does not name the config:\n${last_err}")
endif()

# The same drop stays under a 30% threshold -> exit 0.
expect_code(0 --check --ledger "${workdir}/regressed.jsonl" --threshold 30)

# Single-record configs have no history and pass.
set(ledger "")
ledger_row("engine:n=4096,deg=16" 50.0)
file(WRITE "${workdir}/single.jsonl" "${ledger}")
expect_code(0 --check --ledger "${workdir}/single.jsonl")

# A lower-is-better metric regresses upward.
file(WRITE "${workdir}/latency.jsonl"
"{\"kind\":\"run\",\"config\":\"israeli_itai|er:n=64,deg=3|t1\",\"metric\":\"wall_ms\",\"value\":10.0,\"higher_is_better\":false}
{\"kind\":\"run\",\"config\":\"israeli_itai|er:n=64,deg=3|t1\",\"metric\":\"wall_ms\",\"value\":10.5,\"higher_is_better\":false}
{\"kind\":\"run\",\"config\":\"israeli_itai|er:n=64,deg=3|t1\",\"metric\":\"wall_ms\",\"value\":9.5,\"higher_is_better\":false}
{\"kind\":\"run\",\"config\":\"israeli_itai|er:n=64,deg=3|t1\",\"metric\":\"wall_ms\",\"value\":14.0,\"higher_is_better\":false}
")
expect_code(1 --check --ledger "${workdir}/latency.jsonl")

# Parse / IO / usage errors -> exit 2.
file(WRITE "${workdir}/corrupt.jsonl" "{\"kind\":\"bench\"\n")
expect_code(2 --check --ledger "${workdir}/corrupt.jsonl")
file(WRITE "${workdir}/missing_fields.jsonl" "{\"kind\":\"bench\"}\n")
expect_code(2 --check --ledger "${workdir}/missing_fields.jsonl")
expect_code(2 --check --ledger "${workdir}/does_not_exist.jsonl")
expect_code(2 --frobnicate)
expect_code(2 --ledger)

# An empty ledger is not an error: nothing to compare.
file(WRITE "${workdir}/empty.jsonl" "")
expect_code(0 --check --ledger "${workdir}/empty.jsonl")
