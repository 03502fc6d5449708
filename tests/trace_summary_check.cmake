# CLI contract test for tools/trace_summary's exit codes (PR 9
# satellite): `--check` returns 0 on a valid trace, 1 on a truncated or
# non-JSON input, and usage errors return 2; `--check --events`
# additionally enforces the event-log invariants (closed vocabulary,
# sorted ns stamps, crash/revive pairing).
#
#   cmake -DRUNNER=<runner> -DTRACE_SUMMARY=<trace_summary>
#         -P trace_summary_check.cmake
#
# Registered by the top-level CMakeLists as test `trace_summary_check`.
if(NOT RUNNER OR NOT TRACE_SUMMARY)
  message(FATAL_ERROR
      "pass -DRUNNER=... and -DTRACE_SUMMARY=... binary paths")
endif()

set(workdir "${CMAKE_CURRENT_BINARY_DIR}/trace_summary_check_out")
file(REMOVE_RECURSE "${workdir}")
file(MAKE_DIRECTORY "${workdir}")

function(expect_code expected)
  execute_process(
    COMMAND "${TRACE_SUMMARY}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL ${expected})
    message(SEND_ERROR
        "expected exit ${expected}, got '${code}' for: ${ARGN}\n"
        "stdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

# A real trace from a real run.
execute_process(
  COMMAND "${RUNNER}" --generator er:n=64,deg=3 --solver israeli_itai
          --oracle none --ledger off --log-level quiet
          --trace "${workdir}/run.trace.json"
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "runner failed to produce a trace: ${err}")
endif()

# Valid trace: --check passes, the report mode also exits 0.
expect_code(0 --check "${workdir}/run.trace.json")
expect_code(0 "${workdir}/run.trace.json")

# Truncated trace: cut the document in half — no longer valid JSON.
file(READ "${workdir}/run.trace.json" trace_text)
string(LENGTH "${trace_text}" trace_len)
math(EXPR half "${trace_len} / 2")
string(SUBSTRING "${trace_text}" 0 ${half} truncated)
file(WRITE "${workdir}/truncated.json" "${truncated}")
expect_code(1 --check "${workdir}/truncated.json")

# Non-JSON input.
file(WRITE "${workdir}/garbage.json" "this is not a trace\n")
expect_code(1 --check "${workdir}/garbage.json")

# Well-formed JSON that is not a trace document.
file(WRITE "${workdir}/nottrace.json" "{\"spans\": []}\n")
expect_code(1 --check "${workdir}/nottrace.json")

# Missing file -> 1 (I/O failure), usage errors -> 2.
expect_code(1 --check "${workdir}/does_not_exist.json")
expect_code(2)
expect_code(2 --frobnicate "${workdir}/run.trace.json")
expect_code(2 "${workdir}/run.trace.json" "${workdir}/garbage.json")

# ------------------------------------------------- event-log fixtures --
# Valid log: sorted ns, known kinds, every crash revived (including a
# flapping vertex that crashes twice).
file(WRITE "${workdir}/events_ok.jsonl"
"{\"ev\":\"round\",\"round\":1,\"ns\":100,\"delivered\":4,\"sent\":4,\"stepped\":2}
{\"ev\":\"crash\",\"round\":1,\"ns\":150,\"vertex\":7,\"epoch\":1}
{\"ev\":\"revive\",\"round\":2,\"ns\":200,\"vertex\":7,\"epoch\":2}
{\"ev\":\"crash\",\"round\":3,\"ns\":250,\"vertex\":7,\"epoch\":3}
{\"ev\":\"revive\",\"round\":4,\"ns\":300,\"vertex\":7,\"epoch\":4}
")
expect_code(0 --check --events "${workdir}/events_ok.jsonl")
expect_code(0 --events "${workdir}/events_ok.jsonl")

# Unpaired crash: vertex 9 never revives.
file(WRITE "${workdir}/events_unpaired.jsonl"
"{\"ev\":\"crash\",\"round\":1,\"ns\":100,\"vertex\":9,\"epoch\":1}
")
expect_code(1 --check --events "${workdir}/events_unpaired.jsonl")

# Revive without a preceding crash.
file(WRITE "${workdir}/events_orphan_revive.jsonl"
"{\"ev\":\"revive\",\"round\":1,\"ns\":100,\"vertex\":3,\"epoch\":1}
")
expect_code(1 --check --events "${workdir}/events_orphan_revive.jsonl")

# Unknown event kind (outside the closed vocabulary).
file(WRITE "${workdir}/events_unknown.jsonl"
"{\"ev\":\"frobnicate\",\"round\":1,\"ns\":100}
")
expect_code(1 --check --events "${workdir}/events_unknown.jsonl")

# Unsorted ns stamps.
file(WRITE "${workdir}/events_unsorted.jsonl"
"{\"ev\":\"round\",\"round\":1,\"ns\":200,\"delivered\":1,\"sent\":1,\"stepped\":1}
{\"ev\":\"round\",\"round\":2,\"ns\":100,\"delivered\":1,\"sent\":1,\"stepped\":1}
")
expect_code(1 --check --events "${workdir}/events_unsorted.jsonl")

# Non-JSON line.
file(WRITE "${workdir}/events_garbage.jsonl" "not json\n")
expect_code(1 --check --events "${workdir}/events_garbage.jsonl")
