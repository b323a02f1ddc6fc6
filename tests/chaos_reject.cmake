# bench_chaos must refuse, not crash on, the plans its topology cannot
# replay: a crash of box a (its pool holds the auxiliary destination's
# segments) and a crash of b or c that never restarts.  Each plan must exit
# 2 naming the offending clause, as a parse error does.  Invoked by the
# chaos_reject CTest entry (see tests/CMakeLists.txt).
if(NOT DEFINED BENCH_CHAOS)
  message(FATAL_ERROR "chaos_reject.cmake needs -DBENCH_CHAOS=<bin>")
endif()

foreach(plan IN ITEMS "@1604ms crash box=0 for=300ms" "@1s crash box=1" "@2s crash box=2")
  execute_process(COMMAND ${CMAKE_COMMAND} -E env "PANDORA_FAULT_PLAN=${plan}" ${BENCH_CHAOS}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bench_chaos exited ${rc} on the unreplayable plan '${plan}' (want 2)")
  endif()
  if(NOT err MATCHES "PANDORA_FAULT_PLAN rejected: `@[0-9]+us crash box=[0-9]")
    message(FATAL_ERROR "bench_chaos did not name the offending clause of '${plan}': ${err}")
  endif()
endforeach()
message(STATUS "chaos reject: every unreplayable plan refused with exit 2")
