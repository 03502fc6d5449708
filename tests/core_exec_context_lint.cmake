# Lint: no header under src/core declares a raw `ThreadPool*` or an
# `unsigned shards`. The thread pool and the shard request reach the
# round engine only through one runtime/exec_context.hpp ExecContext per
# solver, so the pair cannot creep back into option structs and
# parameter lists one field at a time.
#
#   cmake -DSRC_DIR=<repo>/src -P core_exec_context_lint.cmake
#
# Registered by the top-level CMakeLists as test `core_exec_context_lint`.
if(NOT SRC_DIR)
  message(FATAL_ERROR "pass -DSRC_DIR=<path to the src directory>")
endif()

file(GLOB headers "${SRC_DIR}/core/*.hpp")
if(NOT headers)
  message(FATAL_ERROR "no headers found under ${SRC_DIR}/core")
endif()
foreach(header ${headers})
  file(STRINGS "${header}" hits REGEX "ThreadPool[ \t]*\\*|unsigned[ \t]+shards")
  foreach(hit ${hits})
    message(SEND_ERROR "${header}: declares execution plumbing; take an "
                       "ExecContext instead:\n  ${hit}")
  endforeach()
endforeach()
