# Run PROGRAM with ARG (one argument, or a ;-list of them) and fail unless
# it exits with EXPECT_EXIT and writes exactly one line to stderr: the CLI
# contract for a bad flag value.  With EXPECT_EXIT=0 the run checks an
# accepted spelling instead, and stderr must stay empty.
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
set(want 1)
if(EXPECT_EXIT STREQUAL "0")
  set(want 0)
endif()
string(REGEX MATCHALL "\n" lines "${err}")
list(LENGTH lines n)
if(NOT n EQUAL want)
  message(FATAL_ERROR "${PROGRAM} ${ARG}: expected ${want} line(s) on "
                      "stderr, got ${n}: ${err}")
endif()
