# Run one example and require a clean run: exit code 0 and every
# "|"-separated string of EXPECT somewhere on stdout.
#
#   cmake -DEXE=<binary> "-DEXPECT=<text>|<text>" -P expect_output.cmake
execute_process(COMMAND "${EXE}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "expected exit 0, got '${rc}'; stderr:\n${err}")
endif()
string(REPLACE "|" ";" expected "${EXPECT}")
foreach(text IN LISTS expected)
  string(FIND "${out}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stdout lacks '${text}':\n${out}")
  endif()
endforeach()
