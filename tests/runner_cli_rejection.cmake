# CLI contract test for tools/runner's input rejection: every malformed
# spec string — generator, solver, solver config, fault plan, dynamic
# stream — must exit 2 with exactly one `runner: invalid spec:` line on
# stderr, never a stack trace, a zero exit, or a leg-dependent format.
# CTest-unfriendly to express with PASS_REGULAR_EXPRESSION (which
# overrides the exit-code check entirely), so it runs as a script:
#
#   cmake -DRUNNER=<path-to-runner-binary> -P runner_cli_rejection.cmake
#
# Registered by the top-level CMakeLists as test `runner_cli_rejection`.
if(NOT RUNNER)
  message(FATAL_ERROR "pass -DRUNNER=<path to the runner binary>")
endif()

# Runs the runner with ${ARGN}, expecting exit 2 and a one-line
# `runner: invalid spec:` diagnostic on stderr.
function(expect_reject)
  execute_process(
    COMMAND "${RUNNER}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(SEND_ERROR
        "expected exit 2, got '${code}' for: ${ARGN}\nstderr: ${err}")
    return()
  endif()
  if(NOT err MATCHES "runner: invalid spec: ")
    message(SEND_ERROR
        "missing 'runner: invalid spec:' diagnostic for: ${ARGN}\n"
        "stderr: ${err}")
    return()
  endif()
  string(REGEX REPLACE "\n$" "" err_stripped "${err}")
  if(err_stripped MATCHES "\n")
    message(SEND_ERROR
        "diagnostic is not one line for: ${ARGN}\nstderr: ${err}")
  endif()
endfunction()

# Runs the runner with ${ARGN}, expecting success (exit 0).
function(expect_accept)
  execute_process(
    COMMAND "${RUNNER}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(SEND_ERROR
        "expected exit 0, got '${code}' for: ${ARGN}\nstderr: ${err}")
  endif()
endfunction()

# Missing required flags print usage and exit 2 (no diagnostic line —
# the usage text is the diagnostic).
execute_process(COMMAND "${RUNNER}" --generator path:n=8
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(SEND_ERROR "expected exit 2 without --solver, got '${code}'")
endif()

# Malformed generator spec.
expect_reject(--generator er:n=bogus --solver greedy_mcm)
expect_reject(--generator nosuchfamily:n=8 --solver greedy_mcm)
# Densities: p and deg must be finite and >= 0, and p at most 1 (a NaN
# once sent the pair sampler into an endless loop).
expect_reject(--generator er:n=100,deg=nan --solver greedy_mcm)
expect_reject(--generator er:n=100,p=nan --solver greedy_mcm)
expect_reject(--generator bipartite:nx=50,ny=50,p=nan --solver greedy_mcm)
expect_reject(--generator er:n=100,deg=-4 --solver greedy_mcm)
expect_reject(--generator er:n=100,deg=inf --solver greedy_mcm)
expect_reject(--generator er:n=100,p=-0.1 --solver greedy_mcm)
expect_reject(--generator er:n=100,p=1.5 --solver greedy_mcm)
# Unknown solver.
expect_reject(--generator path:n=8 --solver nosuchsolver)
# Config key the solver does not understand.
expect_reject(--generator path:n=8 --solver israeli_itai --config bogus=1)
# Fault specs: unknown preset, out-of-range probability, unknown key,
# and budget violation (drop + delay_p + dup > 1).
expect_reject(--generator path:n=8 --solver israeli_itai --faults nosuchpreset)
expect_reject(--generator path:n=8 --solver israeli_itai
              --faults bad:drop=1.5)
expect_reject(--generator path:n=8 --solver israeli_itai
              --faults bad:frobnicate=1)
expect_reject(--generator path:n=8 --solver israeli_itai
              --faults bad:drop=0.6,dup=0.6)
# Graph-layer faults require the dynamic leg.
expect_reject(--generator path:n=8 --solver israeli_itai --faults flap1)
# Message-layer faults require a solver with a `faults` config key.
expect_reject(--generator path:n=8 --solver greedy_mcm --faults drop10)
# Dynamic leg: missing stream, malformed stream, unknown maintainer.
expect_reject(--generator path:n=8 --solver greedy_mcm --dynamic greedy)
expect_reject(--generator path:n=8 --solver greedy_mcm --dynamic greedy
              --dynamic-stream churn:bogus=1)
expect_reject(--generator path:n=8 --solver greedy_mcm
              --dynamic nosuchmaintainer
              --dynamic-stream churn:n=64,m0=64,updates=16)
# Count flags: negative or non-integer values are rejected, not wrapped
# (--threads -1 would ask the pool for 2^32-1 workers, --shards -1 would
# silently become the 4096 clamp); so is a negative shards= config key.
expect_reject(--generator er:n=64,deg=2 --solver israeli_itai --threads -1)
expect_reject(--generator er:n=64,deg=2 --solver israeli_itai --threads abc)
expect_reject(--generator er:n=64,deg=2 --solver israeli_itai --shards -1)
expect_reject(--generator er:n=64,deg=2 --solver israeli_itai
              --shards 4294967296)
expect_reject(--generator er:n=64,deg=2 --solver israeli_itai
              --config shards=-1)
expect_reject(--generator er:n=64,deg=2 --solver israeli_itai
              --lca auto --lca-queries -1)
expect_reject(--generator er:n=64,deg=2 --solver israeli_itai
              --lca auto --lca-cache -1)
expect_reject(--generator path:n=8 --solver greedy_mcm --dynamic greedy
              --dynamic-stream churn:n=64,m0=64,updates=16
              --dynamic-checkpoints -1)
expect_reject(--generator er:n=64,deg=2 --solver israeli_itai
              --stall-timeout-ms -1)
# Integer solver-config keys: k=2^32+3 would run as k=3 while echoing
# the typed value, and a negative cap would become a 2^64-1 budget.
expect_reject(--generator bipartite:nx=64,ny=64,deg=4 --solver bipartite_mcm
              --config k=4294967299)
expect_reject(--generator bipartite:nx=64,ny=64,deg=4 --solver bipartite_mcm
              --config max_iterations_per_phase=-1)
# Seeds span the full unsigned 64-bit range; negatives are rejected.
expect_reject(--generator er:n=64,deg=2 --solver israeli_itai --seed -1)
# class_mwm's class base: must exceed 1, and must not push a weight's
# class index out of int range (1+1e-15 gives ~4e15 for w = 100).
expect_reject(--generator er:n=64,deg=4,w=uniform,wlo=1,whi=100
              --solver class_mwm --config class_base=1)
expect_reject(--generator er:n=64,deg=4,w=uniform,wlo=1,whi=100
              --solver class_mwm --config class_base=1.000000000000001)

# And the contract's other half: well-formed specs still run.
expect_accept(--generator path:n=8 --solver greedy_mcm --oracle none
              --no-telemetry)
expect_accept(--generator er:n=64,deg=3 --solver israeli_itai --oracle none
              --faults drop10 --no-telemetry)
expect_accept(--generator er:n=64,deg=3 --solver israeli_itai --oracle none
              --seed 18446744073709551615 --no-telemetry)
expect_accept(--generator er:n=64,deg=4,w=uniform,wlo=1,whi=100
              --solver class_mwm --config class_base=1.0000001
              --oracle none --no-telemetry)
# The default deg=4 is above n - 1 here: the complete graph, not an error.
expect_accept(--generator er:n=3 --solver greedy_mcm --oracle none
              --no-telemetry)
