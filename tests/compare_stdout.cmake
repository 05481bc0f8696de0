# Runs PROGRAM with ARGS (one space-separated string) and fails unless its
# exit status is 0 and its stdout equals the bytes of GOLDEN. The output
# is kept in ACTUAL, so a deliberate change is re-recorded by copying it
# over GOLDEN.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" -DGOLDEN=<file> -DACTUAL=<file>
#         -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with '${status}'")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
  message(FATAL_ERROR "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN} "
                      "(actual output: ${ACTUAL})")
endif()
