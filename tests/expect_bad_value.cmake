# Runs PROGRAM with ARGS (one space-separated string) and fails unless it
# exits with status 2 and prints EXPECT (a regular expression, by default
# "invalid value") on stderr.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" [-DEXPECT=<regex>]
#         -P expect_bad_value.cmake
if(NOT DEFINED EXPECT)
  set(EXPECT "invalid value")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 2 OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with '${status}', "
                      "expected 2 and '${EXPECT}' on stderr:\n${err}")
endif()
