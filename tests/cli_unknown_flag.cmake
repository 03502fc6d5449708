# Every binary reads its flags through one reader (util/options' Args)
# and ends its reads with check_all_used(): an unknown flag or an
# out-of-range count is one `<program>: ...` line on stderr and exit 2,
# before any work (so nothing reaches stdout). Checked on one bench and
# one example; `--threads -1` once wrapped to a 2^32 - 1 thread request.
#
#   cmake -DBENCH=<bench_lca> -DEXAMPLE=<oracle_queries> \
#         -P cli_unknown_flag.cmake
#
# Registered by the top-level CMakeLists as test `cli_unknown_flag`.
if(NOT BENCH OR NOT EXAMPLE)
  message(FATAL_ERROR "pass -DBENCH=... and -DEXAMPLE=... binary paths")
endif()

function(expect_reject bin program)
  execute_process(
    COMMAND "${bin}" ${ARGN}
    TIMEOUT 10
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2 OR NOT out STREQUAL "" OR
     NOT err MATCHES "^${program}: [^\n]*\n$")
    message(SEND_ERROR
        "expected exit 2, no stdout and one '${program}:' line for: "
        "${ARGN}\ncode: ${code}\nstdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

foreach(bin_program "${BENCH};bench_lca" "${EXAMPLE};oracle_queries")
  list(GET bin_program 0 bin)
  list(GET bin_program 1 program)
  expect_reject("${bin}" ${program} --no-such-flag 1)
  expect_reject("${bin}" ${program} --threads -1)
  expect_reject("${bin}" ${program} stray)
endforeach()
