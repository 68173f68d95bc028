# Regenerates one committed reproduction artifact and compares it byte for
# byte with the file under results/ (the `reproduce.*` ctests, registered in
# bench/CMakeLists.txt):
#
#   cmake -DBENCH=<bench binary> -DWORK_DIR=<scratch dir> -DARTIFACT=<name>
#         -DCOMMITTED=<results/ dir> -P scripts/check_figure.cmake
#
# The bench runs at its default settings inside WORK_DIR, which is emptied
# first and given its own results/ directory: some benches write
# results/<file> relative to the working directory, so they must never run
# from the source tree. Simulated runs are bit-deterministic, so any
# difference is a change in what the simulator computes; the diff is
# printed.
foreach(var BENCH WORK_DIR ARTIFACT COMMITTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_figure.cmake: -D${var}=... is required")
  endif()
endforeach()

get_filename_component(bench_name "${BENCH}" NAME)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/results")
execute_process(
  COMMAND "${BENCH}" "--csv=results/${bench_name}.csv"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
  ERROR_FILE "${WORK_DIR}/stderr.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ "${WORK_DIR}/stderr.txt" err)
  message(FATAL_ERROR "${bench_name} exited with ${rc}:\n${err}")
endif()

set(produced "${WORK_DIR}/results/${ARTIFACT}")
set(committed "${COMMITTED}/${ARTIFACT}")
if(NOT EXISTS "${produced}")
  message(FATAL_ERROR "${bench_name} did not write results/${ARTIFACT}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${committed}" "${produced}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_TOOL diff)
  if(DIFF_TOOL)
    execute_process(COMMAND "${DIFF_TOOL}" -u "${committed}" "${produced}")
  else()
    file(READ "${committed}" want)
    file(READ "${produced}" got)
    message("--- committed ${committed}\n${want}\n+++ produced ${produced}\n${got}")
  endif()
  message(FATAL_ERROR
          "${bench_name}: results/${ARTIFACT} no longer reproduces (diff above)")
endif()
message(STATUS "${bench_name}: results/${ARTIFACT} reproduces byte for byte")
