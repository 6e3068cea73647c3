# Run one example with a bad argument and require a clean rejection:
# exit code 2, a one-line "ppssd: invalid <NAME>=..." message on stderr
# and no check-failure banner.
#
#   cmake -DEXE=<binary> "-DARGS=<space-separated args>" -DNAME=<arg name>
#         -P expect_rejection.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit 2, got '${rc}'; stderr:\n${err}")
endif()
if(err MATCHES "check failed")
  message(FATAL_ERROR "rejection went through a failed check:\n${err}")
endif()
string(FIND "${err}" "ppssd: invalid ${NAME}=" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${NAME}:\n${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1)
  message(FATAL_ERROR "expected one line on stderr, got ${lines}:\n${err}")
endif()
