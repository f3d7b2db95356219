# Run nx_pipeline and compare its stdout byte for byte with a checked-in
# golden file.
#
#   cmake -DBIN=<nx_pipeline> -DGOLDEN=<file> "-DARGS=<space-separated flags>"
#         [-DDIR=<scratch dir>] [-DOUT=<file> -DOUT_GOLDEN=<file>]
#         -P check_golden.cmake
#
# When DIR is given it is removed first, `{dir}` in ARGS is replaced by it,
# and every occurrence of it in the output is masked as `<dir>`, so the
# durable run's directory echo does not depend on the build tree.  With
# -DRERUN=1 the command runs twice on the same DIR and only the second run's
# output is compared, with the "(durable ...)" status lines (recovery and
# commit counts) dropped from both sides: a rerun must resume, not repeat.
# When OUT is given it is removed first, `{out}` in ARGS is replaced by it,
# its path is masked as `<out>` in the output, and the file the run wrote
# there must equal OUT_GOLDEN byte for byte (e.g. a --metrics-out snapshot).
# On a mismatch the fresh output is left beside the test as
# <name>.actual.txt; a deliberate output change is accepted by copying it
# over the golden file.
cmake_minimum_required(VERSION 3.16)

if(DEFINED DIR)
  file(REMOVE_RECURSE "${DIR}")
  string(REPLACE "{dir}" "${DIR}" ARGS "${ARGS}")
endif()
if(DEFINED OUT)
  file(REMOVE "${OUT}")
  string(REPLACE "{out}" "${OUT}" ARGS "${ARGS}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(RERUN)
  execute_process(COMMAND "${BIN}" ${args}
                  OUTPUT_QUIET
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} (first run) exited ${rc}")
  endif()
endif()
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited ${rc}")
endif()
# OUT is masked first: its path may extend DIR's.
if(DEFINED OUT)
  string(REPLACE "${OUT}" "<out>" out "${out}")
endif()
if(DEFINED DIR)
  string(REPLACE "${DIR}" "<dir>" out "${out}")
  file(REMOVE_RECURSE "${DIR}")
endif()
file(READ "${GOLDEN}" want)
if(RERUN)
  string(REGEX REPLACE "\n\\(durable[^\n]*" "" out "${out}")
  string(REGEX REPLACE "\n\\(durable[^\n]*" "" want "${want}")
endif()
if(NOT out STREQUAL want)
  get_filename_component(name "${GOLDEN}" NAME_WE)
  set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt")
  file(WRITE "${actual}" "${out}")
  message(FATAL_ERROR "output differs from ${GOLDEN}; actual output in ${actual}")
endif()
if(DEFINED OUT)
  file(READ "${OUT}" out_got)
  file(READ "${OUT_GOLDEN}" out_want)
  if(NOT out_got STREQUAL out_want)
    get_filename_component(name "${OUT_GOLDEN}" NAME_WE)
    set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.out")
    file(RENAME "${OUT}" "${actual}")
    message(FATAL_ERROR "${OUT} differs from ${OUT_GOLDEN}; actual file in ${actual}")
  endif()
  file(REMOVE "${OUT}")
endif()
