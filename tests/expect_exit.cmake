# Run PROGRAM with the single argument ARG and fail unless it exits with
# EXPECT_EXIT and writes exactly one line to stderr: the CLI contract for
# a bad flag value.
#
#   cmake -DPROGRAM=<binary> -DARG=<arg> -DEXPECT_EXIT=<code> -P expect_exit.cmake
execute_process(COMMAND ${PROGRAM} ${ARG}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 20)
if(NOT rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "${PROGRAM} ${ARG}: exit '${rc}', expected "
                      "${EXPECT_EXIT}; stderr: ${err}")
endif()
string(REGEX MATCHALL "\n" lines "${err}")
list(LENGTH lines n)
if(NOT n EQUAL 1)
  message(FATAL_ERROR "${PROGRAM} ${ARG}: expected one line on stderr, "
                      "got ${n}: ${err}")
endif()
