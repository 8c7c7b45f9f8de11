# Serves one route and one session under `--encoding direct --sym b1` and
# checks that every run-report record carries that strategy, and that both
# a route and a session record were written.
#
#   cmake -DSATFR=<path to satfr> -DWORK_DIR=<dir> -P check_serve_strategy.cmake
cmake_minimum_required(VERSION 3.16)
set(trace ${WORK_DIR}/serve_strategy.trace)
set(report ${WORK_DIR}/serve_strategy.jsonl)
file(WRITE ${trace} "route alu2 8\nsession c1 alu2\nsolve c1 6\nwait\n")
file(REMOVE ${report})
execute_process(
  COMMAND ${SATFR} serve ${trace} --encoding direct --sym b1
          --report ${report}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "satfr serve exited with ${rc}")
endif()
file(STRINGS ${report} records)
set(phases "")
foreach(record IN LISTS records)
  if(NOT record MATCHES "\"encoding\":\"direct\",\"symmetry\":\"b1\"")
    message(FATAL_ERROR "record not under direct/b1: ${record}")
  endif()
  string(REGEX MATCH "\"phase\":\"([a-z]+)\"" unused "${record}")
  list(APPEND phases "${CMAKE_MATCH_1}")
endforeach()
foreach(phase route session)
  if(NOT phase IN_LIST phases)
    message(FATAL_ERROR "no ${phase} record in ${report}")
  endif()
endforeach()
