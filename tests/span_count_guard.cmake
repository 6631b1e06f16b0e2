# Fails when SRC_DIR/core/pipeline/delivery_router.* calls the tracer's
# AddItems. The router counts items in the query's record
# (QueryRecord::ObsSpans); the sites that close a span write the count
# into it once, so routing an item never looks up a span.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/span_count_guard.cmake
cmake_minimum_required(VERSION 3.16)
file(GLOB files LIST_DIRECTORIES false
     "${SRC_DIR}/core/pipeline/delivery_router.*")
if(NOT files)
  message(FATAL_ERROR "span_count_guard: no ${SRC_DIR}/core/pipeline/delivery_router.* files")
endif()
set(report "")
foreach(f IN LISTS files)
  file(STRINGS "${f}" lines REGEX "AddItems[ \t]*\\(")
  foreach(line IN LISTS lines)
    file(RELATIVE_PATH rel "${SRC_DIR}" "${f}")
    string(STRIP "${line}" line)
    string(APPEND report "\n  src/${rel}: ${line}")
  endforeach()
endforeach()
if(report)
  message(FATAL_ERROR "the router calls the tracer per item; bump the record's span counters instead:${report}")
endif()
list(LENGTH files n)
message(STATUS "span_count_guard: ${n} files checked, no per-item tracer calls in the router")
