# Paper-shape gate: runs the print-only benches that carry a paper claim
# with --json and checks the claim's shape.  Every row is simulated time and
# every gate compares rows from the same run, so the verdict is the same on
# any machine.  Invoked by the paper_shapes CTest entry (see
# tests/CMakeLists.txt).
#
#   E9  (P2): audio loss = 0 and no audio shed at the splitter, while video
#             is shed.
#   ABL A2:   audio loss WITH the interface split <= 1 % and below the loss
#             WITHOUT it.
#   E7:       audio jitter with 8-strip video < 0.25 x the jitter behind
#             whole-frame video.
foreach(var IN ITEMS E9 ABL E7 WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_shapes.cmake needs -DE9=<bin> -DABL=<bin> -DE7=<bin> "
                        "-DWORK_DIR=<dir>")
  endif()
endforeach()

# Runs one bench and returns its --json rows as text.
function(run_bench bench out_var)
  get_filename_component(name ${bench} NAME)
  set(json "${WORK_DIR}/paper_shapes_${name}.json")
  execute_process(COMMAND ${bench} --json=${json} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} failed (exit ${rc})")
  endif()
  file(READ ${json} text)
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# Sets `out_var` to the value of the row labelled `label`, in millionths
# (an integer, so the gates below can scale and compare exactly).
function(row_micro rows label out_var)
  string(JSON count LENGTH "${rows}")
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON row_label GET "${rows}" ${i} label)
    if(row_label STREQUAL label)
      string(JSON value GET "${rows}" ${i} value)
      if(NOT value MATCHES "^([0-9]+)(\\.([0-9]+))?$")
        message(FATAL_ERROR "row '${label}' = '${value}' is not a plain decimal")
      endif()
      set(whole ${CMAKE_MATCH_1})
      string(SUBSTRING "${CMAKE_MATCH_3}000000" 0 6 fraction)
      string(REGEX REPLACE "^0+([0-9])" "\\1" fraction "${fraction}")
      math(EXPR micro "${whole} * 1000000 + ${fraction}")
      set(${out_var} ${micro} PARENT_SCOPE)
      message(STATUS "${label} = ${value}")
      return()
    endif()
  endforeach()
  message(FATAL_ERROR "no row labelled '${label}'")
endfunction()

set(failures "")

run_bench(${E9} e9)
row_micro("${e9}" "audio loss at destination" e9_audio_loss)
row_micro("${e9}" "audio segments shed at the splitter" e9_audio_shed)
row_micro("${e9}" "video segments shed at the splitter" e9_video_shed)
if(NOT e9_audio_loss EQUAL 0)
  list(APPEND failures "E9: audio loss at destination is not 0 (P2)")
endif()
if(NOT e9_audio_shed EQUAL 0)
  list(APPEND failures "E9: audio segments shed at the splitter (P2)")
endif()
if(NOT e9_video_shed GREATER 0)
  list(APPEND failures "E9: no video shed at the splitter, so the uplink was not overloaded")
endif()

run_bench(${ABL} abl)
row_micro("${abl}" "audio loss WITH the split" a2_with)
row_micro("${abl}" "audio loss WITHOUT the split" a2_without)
if(a2_with GREATER 1000000)
  list(APPEND failures "A2: audio loss WITH the split is above 1 %")
endif()
if(NOT a2_with LESS a2_without)
  list(APPEND failures "A2: the split does not lower audio loss")
endif()

run_bench(${E7} e7)
row_micro("${e7}" "audio jitter behind whole-frame video" e7_whole)
row_micro("${e7}" "audio jitter with smaller segments" e7_strips)
math(EXPR e7_strips_x4 "4 * ${e7_strips}")
if(NOT e7_strips_x4 LESS e7_whole)
  list(APPEND failures "E7: 8-strip audio jitter is not below 0.25 x the whole-frame jitter")
endif()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "paper shapes broken:\n  ${report}")
endif()
message(STATUS "paper shapes: E9 P2, ABL A2 and E7 hold")
