# Runs PROGRAM with ARGS (one space-separated string) and fails unless it
# exits with status 2 and names an invalid value on stderr.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" -P expect_bad_value.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 2 OR NOT err MATCHES "invalid value")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with '${status}', "
                      "expected 2 and 'invalid value' on stderr:\n${err}")
endif()
