# Golden-file check for one paper table/figure bench, run via ctest as
#   cmake -DBENCH=<binary> -DNAME=<csv stem> -DGOLDEN_DIR=<dir>
#         -DOUT_DIR=<scratch dir> -P golden_csv.cmake
# Runs the bench with RSP_BENCH_CSV_DIR=OUT_DIR and byte-compares the CSV it
# writes with GOLDEN_DIR/NAME.csv. On a mismatch the first differing line is
# reported; regenerate the golden files only for an intended model change.
foreach(var BENCH NAME GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_csv.cmake requires -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "RSP_BENCH_CSV_DIR=${OUT_DIR}" "${BENCH}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH}: exit code ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

set(fresh "${OUT_DIR}/${NAME}.csv")
set(golden "${GOLDEN_DIR}/${NAME}.csv")
if(NOT EXISTS "${fresh}")
  message(FATAL_ERROR "${BENCH} wrote no ${NAME}.csv")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${fresh}" "${golden}"
  RESULT_VARIABLE differs)
if(differs)
  file(STRINGS "${fresh}" fresh_lines)
  file(STRINGS "${golden}" golden_lines)
  list(LENGTH fresh_lines fresh_count)
  list(LENGTH golden_lines golden_count)
  set(first "")
  set(i 0)
  foreach(line IN LISTS golden_lines)
    if(i GREATER_EQUAL fresh_count)
      break()
    endif()
    list(GET fresh_lines ${i} got)
    if(NOT got STREQUAL line)
      math(EXPR lineno "${i} + 1")
      set(first "line ${lineno}:\n  golden: ${line}\n  fresh:  ${got}")
      break()
    endif()
    math(EXPR i "${i} + 1")
  endforeach()
  if(first STREQUAL "")
    set(first "line counts differ: golden ${golden_count}, fresh ${fresh_count}")
  endif()
  message(FATAL_ERROR "${NAME}.csv differs from the golden copy\n${first}")
endif()
