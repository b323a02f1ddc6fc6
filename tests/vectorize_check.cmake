# Row-kernel vectorization gate: compiles tests/vectorize_check.cc and
# src/video/dpcm.cc at the production optimization level with GCC's
# vectorizer report enabled and fails unless
#   * the arithmetic passes of src/audio/mix_kernels.h,
#   * MovingBarPattern's gradient fill (src/video/framestore.h), and
#   * the DPCM row loop (src/video/dpcm.cc `CombineRows`, instantiated
#     for the compress residuals and the vertical-delta decode)
# still vectorize.  Run via ctest (registered in tests/CMakeLists.txt).
#
# Inputs: -DCXX=<compiler> -DSRC_DIR=<repo root> -DPROBE=<probe TU>
#         -DWORK_DIR=<scratch dir>

set(reports "")
foreach(tu ${PROBE} ${SRC_DIR}/src/video/dpcm.cc)
  get_filename_component(stem ${tu} NAME_WE)
  execute_process(
    COMMAND ${CXX} -std=c++20 -O2 -I${SRC_DIR} -fopt-info-vec-optimized
            -c ${tu} -o ${WORK_DIR}/vectorize_check_${stem}.o
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "vectorize probe ${tu} failed to compile:\n${err}")
  endif()
  string(APPEND reports "${out}${err}")
endforeach()

# GCC prints one "optimized: loop vectorized" line per vectorized loop, tagged
# with the source line.  AccumulateBlock and ClampBlock must both vectorize;
# the µ-law table passes are gathers and may legitimately stay scalar.
string(REGEX MATCHALL "mix_kernels\\.h:[0-9]+:[0-9]+: optimized: (loop|basic block part) vectorized"
       mix "${reports}")
list(LENGTH mix nmix)
if(nmix LESS 2)
  message(FATAL_ERROR
    "expected >= 2 vectorized mix-kernel loops (AccumulateBlock, ClampBlock), "
    "got ${nmix}.\nVectorizer output:\n${reports}")
endif()
message(STATUS "mix kernels vectorized: ${nmix} loops")

# Line number of the first line of `file` containing `marker`.
function(marker_line file marker out_var)
  file(READ ${file} text)
  string(FIND "${text}" "${marker}" offset)
  if(offset EQUAL -1)
    message(FATAL_ERROR "gate marker '${marker}' not found in ${file}; update "
                        "tests/vectorize_check.cmake with the kernel's new name")
  endif()
  string(SUBSTRING "${text}" 0 ${offset} head)
  string(REGEX MATCHALL "\n" newlines "${head}")
  list(LENGTH newlines n)
  math(EXPR line "${n} + 1")
  set(${out_var} ${line} PARENT_SCOPE)
endfunction()

# Fails unless `file` has at least `min` "loop vectorized" reports on lines
# from the one holding `first` up to (not including) the one holding `last`.
function(require_loop_vectorized file first last min what)
  marker_line(${SRC_DIR}/${file} "${first}" from)
  marker_line(${SRC_DIR}/${file} "${last}" to)
  get_filename_component(name ${file} NAME)
  string(REPLACE "." "\\." name_re ${name})
  string(REGEX MATCHALL "${name_re}:[0-9]+:[0-9]+: optimized: loop vectorized" hits "${reports}")
  set(n 0)
  foreach(hit ${hits})
    string(REGEX MATCH ":([0-9]+):" _ "${hit}")
    if(CMAKE_MATCH_1 GREATER_EQUAL from AND CMAKE_MATCH_1 LESS to)
      math(EXPR n "${n} + 1")
    endif()
  endforeach()
  if(n LESS min)
    message(FATAL_ERROR
      "${what} (${file}:${from}-${to}): expected >= ${min} vectorized loops at -O2, "
      "got ${n}.\nVectorizer output:\n${reports}")
  endif()
  message(STATUS "${what} vectorized: ${n} loops")
endfunction()

require_loop_vectorized(src/video/framestore.h "static void FillGradient(" "int BarX(uint32_t" 1
                        "MovingBarPattern::FillRow gradient")
# One report per instantiation: std::minus (compress residuals) and
# std::plus (vertical-delta decode).
require_loop_vectorized(src/video/dpcm.cc "void CombineRows(" "using ByteLanes" 2
                        "DPCM row loops")
