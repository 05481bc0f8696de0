# Runs PROGRAM --smoke in DIR (with ACORN_BENCH_JSON unset by the test)
# and fails if it exits non-zero or leaves a BENCH_*.json there.
#
#   cmake -DPROGRAM=<exe> -DDIR=<dir> -P expect_no_rows.cmake
file(GLOB stale ${DIR}/BENCH_*.json)
if(stale)
  file(REMOVE ${stale})
endif()
execute_process(COMMAND ${PROGRAM} --smoke
                WORKING_DIRECTORY ${DIR}
                OUTPUT_QUIET
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} --smoke exited with '${status}'")
endif()
file(GLOB rows ${DIR}/BENCH_*.json)
if(rows)
  message(FATAL_ERROR "${PROGRAM} --smoke wrote rows with ACORN_BENCH_JSON "
                      "unset: ${rows}")
endif()
