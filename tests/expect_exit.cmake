# Runs the command given after "--" and fails unless it exits with
# status EXPECT and prints an "error:" diagnostic. A death by signal
# (SIGFPE, an assert's SIGABRT, an uncaught throw) reports as a string,
# not a number, so it never matches.
#
#   cmake -DEXPECT=2 -P expect_exit.cmake -- <command> [args...]
set(Cmd)
set(Collect FALSE)
math(EXPR Last "${CMAKE_ARGC} - 1")
foreach(I RANGE ${Last})
  if(Collect)
    list(APPEND Cmd "${CMAKE_ARGV${I}}")
  elseif("${CMAKE_ARGV${I}}" STREQUAL "--")
    set(Collect TRUE)
  endif()
endforeach()
execute_process(COMMAND ${Cmd} RESULT_VARIABLE Status OUTPUT_QUIET
                ERROR_VARIABLE Err)
if(NOT "${Status}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit ${EXPECT}, got '${Status}'\n${Err}")
endif()
if(NOT Err MATCHES "error:")
  message(FATAL_ERROR "no diagnostic on stderr")
endif()
