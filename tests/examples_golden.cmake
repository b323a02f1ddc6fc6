# The six examples must reproduce examples_output.txt byte for byte: each
# block is the `===== build/examples/<name> =====` banner, the example's
# output and its `exit: N` line, then a blank line.  Invoked by the
# examples_golden CTest entry (see tests/CMakeLists.txt).
if(NOT DEFINED EXAMPLES_DIR OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "examples_golden.cmake needs -DEXAMPLES_DIR=<dir> -DGOLDEN=<file>")
endif()

set(actual "")
foreach(name IN ITEMS conference medusa_studio quickstart tannoy video_phone videomail)
  execute_process(COMMAND ${EXAMPLES_DIR}/${name}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  string(APPEND actual "===== build/examples/${name} =====\n${out}exit: ${rc}\n\n")
endforeach()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "the examples' output differs from ${GOLDEN}; got:\n${actual}")
endif()
message(STATUS "examples golden: all six examples match ${GOLDEN}")
